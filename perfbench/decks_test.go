package main

import (
	"bytes"
	"testing"

	"qwm/internal/mos"
)

const streamLen = 200

func coldStream(t *testing.T, tech *mos.Tech, seed int64, n int) []request {
	t.Helper()
	g := newColdGen(tech, seed)
	out := make([]request, n)
	for i := range out {
		r, err := g.next()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = r
	}
	return out
}

func pool(t *testing.T, tech *mos.Tech, seed int64) []request {
	t.Helper()
	p, err := warmPool(tech, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSameSeedSameBytes(t *testing.T) {
	tech := mos.CMOSP35()
	for _, seed := range []int64{1, 7} {
		a, b := pool(t, tech, seed), pool(t, tech, seed)
		for i := range a {
			if !bytes.Equal(a[i].Body, b[i].Body) {
				t.Fatalf("seed %d: warm pool request %d differs between two generations", seed, i)
			}
		}
		ca, cb := coldStream(t, tech, seed, streamLen), coldStream(t, tech, seed, streamLen)
		for i := range ca {
			if !bytes.Equal(ca[i].Body, cb[i].Body) {
				t.Fatalf("seed %d: cold request %d differs between two generations", seed, i)
			}
		}
	}
}

func TestDifferentSeedDifferentDecks(t *testing.T) {
	tech := mos.CMOSP35()
	decks := func(rs []request) map[string]bool {
		m := map[string]bool{}
		for _, r := range rs {
			m[r.Deck] = true
		}
		return m
	}
	w1, w2 := decks(pool(t, tech, 1)), decks(pool(t, tech, 2))
	same := 0
	for d := range w1 {
		if w2[d] {
			same++
		}
	}
	if same == len(w1) {
		t.Error("seeds 1 and 2 generate the same warm pool")
	}
	c1, c2 := decks(coldStream(t, tech, 1, streamLen)), decks(coldStream(t, tech, 2, streamLen))
	for d := range c1 {
		if c2[d] {
			t.Fatalf("seeds 1 and 2 share a cold deck:\n%.200s", d)
		}
	}
}

// TestWarmPoolNeverCold checks that no warm_repeat pool deck appears in any
// cold_fresh stream, and that a cold stream never repeats a deck.
func TestWarmPoolNeverCold(t *testing.T) {
	tech := mos.CMOSP35()
	warm := map[string]bool{}
	for seed := int64(1); seed <= 5; seed++ {
		for _, r := range pool(t, tech, seed) {
			warm[r.Deck] = true
		}
	}
	for seed := int64(1); seed <= 5; seed++ {
		seen := map[string]bool{}
		for i, r := range coldStream(t, tech, seed, streamLen) {
			if warm[r.Deck] {
				t.Fatalf("seed %d: cold request %d carries a warm pool deck", seed, i)
			}
			if seen[r.Deck] {
				t.Fatalf("seed %d: cold request %d repeats an earlier deck", seed, i)
			}
			seen[r.Deck] = true
		}
	}
}

// TestColdMixIsFixed checks that every whole cycle of the cold stream has
// the same structures, whatever the seed.
func TestColdMixIsFixed(t *testing.T) {
	tech := mos.CMOSP35()
	count := func(seed int64) map[string]int {
		g := newColdGen(tech, seed)
		m := map[string]int{}
		for i := 0; i < 2*len(coldShapes); i++ {
			p := g.params()
			p.wNM, p.clAF, p.slewFS = 0, 0, 0
			m[p.key()]++
		}
		return m
	}
	a, b := count(1), count(99)
	if len(a) != len(b) {
		t.Fatalf("mix sizes %d and %d", len(a), len(b))
	}
	for k, n := range a {
		if b[k] != n {
			t.Errorf("shape %s: %d vs %d per two cycles", k, n, b[k])
		}
	}
}
