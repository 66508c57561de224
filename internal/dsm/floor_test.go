package dsm

import "testing"

// TestGCEpochFloorAgreement stresses the window the departure-loop floor
// snapshot closes: with one shared page and skewed departure processing,
// a fast node's next-barrier arrival can reach the manager's server
// while it is still sending this barrier's departures. The collector's
// checkEpochFloor tripwire panics (-> Run error) if any node ever
// receives a floor diverging from the manager's. Every episode collects
// (GCMinRetire: 1), so a diverging floor would also purge differently.
func TestGCEpochFloorAgreement(t *testing.T) {
	for iter := 0; iter < 30; iter++ {
		const P = 8
		const rounds = 20
		sys := New(Config{Procs: P, GCMinRetire: 1})
		a := sys.MallocPage(8 * P)
		sys.Register("skew", func(n *Node, _ []byte) {
			me := n.ID()
			for r := 0; r < rounds; r++ {
				n.WriteI64(a+Addr(8*me), int64(r*100+me))
				n.Barrier()
				for j := 0; j < P; j++ {
					if got := n.ReadI64(a + Addr(8*j)); got != int64(r*100+j) {
						t.Errorf("node %d round %d slot %d = %d, want %d", me, r, j, got, r*100+j)
					}
				}
				if me == P-1 {
					n.Compute(30000) // the last departer lags behind the pack
				}
				n.Barrier()
			}
		})
		if err := sys.Run(func(n *Node) { n.RunParallel("skew", nil) }); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
	}
}
