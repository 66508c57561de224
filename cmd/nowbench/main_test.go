package main

import "testing"

func TestGCPressureFlagRejectsNegative(t *testing.T) {
	if _, err := gcKnobs(-1); err == nil {
		t.Error("-gcpressure -1 accepted, want an error")
	}
	for _, p := range []int{0, 1, 64} {
		if g, err := gcKnobs(p); err != nil || g.Pressure != p {
			t.Errorf("-gcpressure %d: got %+v, %v", p, g, err)
		}
	}
}
