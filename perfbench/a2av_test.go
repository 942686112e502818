package main

import "testing"

func TestLayoutOfRepeatsOnlyEveryRepeatEvery(t *testing.T) {
	seen := map[int]bool{}
	repeats := 0
	for n := 0; n < 4*repeatEvery; n++ {
		l := layoutOf(n)
		if l == n {
			seen[l] = true
			continue
		}
		repeats++
		if n%repeatEvery != repeatEvery-1 || l%repeatEvery != 0 || !seen[l] {
			t.Errorf("op %d re-runs layout %d, want a fresh op's layout at a multiple of %d", n, l, repeatEvery)
		}
	}
	if repeats != 4 {
		t.Errorf("%d repeats in %d ops, want 4", repeats, 4*repeatEvery)
	}
}
