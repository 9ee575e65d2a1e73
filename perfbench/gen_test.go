package main

import (
	"reflect"
	"testing"
)

func TestGeneratorsRepeatPerSeed(t *testing.T) {
	kernels := []string{"a", "b", "c"}
	for _, seed := range []int64{1, 2, 99} {
		if a, b := sfllSecrets(seed, 40, 8), sfllSecrets(seed, 40, 8); !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: secrets differ between calls", seed)
		}
		if a, b := xorLockSeeds(seed, 10), xorLockSeeds(seed, 10); !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: lock seeds differ between calls", seed)
		}
		if flowSeed(seed, 3) != flowSeed(seed, 3) || flowSeed(seed, 0) == flowSeed(seed, 1) {
			t.Errorf("seed %d: flow seeds not a fixed per-pass sequence", seed)
		}
		for c := range serveClients {
			if a, b := jobPlan(seed, c, 50), jobPlan(seed, c, 50); !reflect.DeepEqual(a, b) {
				t.Errorf("seed %d: client %d job plan differs between calls", seed, c)
			}
		}
		if a, b := serveSecrets(seed, 8), serveSecrets(seed, 8); !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: serve secrets differ between calls", seed)
		}
		if a, b := serveDesigns(seed, kernels, 9), serveDesigns(seed, kernels, 9); !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: serve designs differ between calls", seed)
		}
	}
	if reflect.DeepEqual(sfllSecrets(1, 40, 8), sfllSecrets(2, 40, 8)) {
		t.Error("seeds 1 and 2 draw the same secrets")
	}
	if reflect.DeepEqual(xorLockSeeds(1, 10), xorLockSeeds(2, 10)) {
		t.Error("seeds 1 and 2 draw the same lock seeds")
	}
	if reflect.DeepEqual(jobPlan(1, 0, 50), jobPlan(2, 0, 50)) {
		t.Error("seeds 1 and 2 plan the same job sequence")
	}
	if reflect.DeepEqual(jobPlan(1, 0, 50), jobPlan(1, 1, 50)) {
		t.Error("both clients plan the same job sequence")
	}
}

func TestSecretsAreDistinctAndInRange(t *testing.T) {
	s := sfllSecrets(7, 300, 8)
	if len(s) != 256 {
		t.Fatalf("got %d secrets from a 256-pattern space, want 256", len(s))
	}
	seen := map[uint64]bool{}
	for _, v := range s {
		if v >= 256 || seen[v] {
			t.Fatalf("secret %d out of range or repeated", v)
		}
		seen[v] = true
	}
}

func TestJobPlanKeepsTheBlockMix(t *testing.T) {
	plan := jobPlan(5, 0, 8*20)
	for b := 0; b < len(plan); b += len(slotBlock) {
		count := map[slotKind]int{}
		for _, s := range plan[b : b+len(slotBlock)] {
			count[s.Kind]++
		}
		want := map[slotKind]int{}
		for _, k := range slotBlock {
			want[k]++
		}
		if !reflect.DeepEqual(count, want) {
			t.Fatalf("block at %d has mix %v, want %v", b, count, want)
		}
	}
}
