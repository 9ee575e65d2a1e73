package main

import (
	"testing"
	"time"
)

func TestSelfTimesOverNestedSpans(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		// attack [0,100] with overlapping solves, a child sticking out of
		// it, and a grandchild under the first solve.
		{ID: 1, Parent: 0, Name: "attack", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "solve", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "solve", Start: ms(20), End: ms(50)},
		{ID: 4, Parent: 1, Name: "oracle", Start: ms(90), End: ms(120)},
		{ID: 5, Parent: 2, Name: "feed", Start: ms(12), End: ms(15)},
		// A second top-level span of the same name adds up.
		{ID: 6, Parent: 0, Name: "attack", Start: ms(200), End: ms(210)},
		// Unclosed spans are skipped.
		{ID: 7, Parent: 0, Name: "open", Start: ms(300), End: -1},
		{ID: 8, Parent: 6, Name: "solve", Start: ms(205), End: -1},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		// 100 - [10,50] - [90,100], plus the second attack's 10.
		"attack": ms(50) + ms(10),
		// (20 - 3) + 30
		"solve":  ms(47),
		"oracle": ms(30),
		"feed":   ms(3),
	}
	if len(got) != len(want) {
		t.Errorf("selfTimes names = %v, want %v", got, want)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
}

func TestTracerNilIsOff(t *testing.T) {
	var tr *tracer
	if id := tr.begin("x", "op", 0); id != 0 {
		t.Fatalf("nil tracer begin = %d, want 0", id)
	}
	tr.end(0)
	on := newTracer()
	parent := on.begin("a", "op", 0)
	child := on.begin("b", "op", parent)
	on.end(child)
	on.end(parent)
	s := on.snapshot()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[0].End < s[1].End {
		t.Fatalf("spans = %+v", s)
	}
}
