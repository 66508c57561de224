package harness

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/dsm"
	"repro/internal/sim"
)

// TestScalingSmoke runs the scaling-wall study for real on every
// application at reduced app scale and machine sizes 8 and 16: the first
// >8-node coverage of the whole Table 1 set. Each 16-node run must
// verify against the sequential oracle (TableScaling cells go through
// Verified) and must attribute its interconnect bytes to a binding
// protocol cost — the categorized split has to cover real traffic, not
// just sum to zero.
// TestScalingDegradesOnCellError pins the study's fault containment: a
// failing (app, size) cell reports its error in place while every other
// row — including the failing application's other sizes — still prints,
// and a failing sequential baseline costs exactly its own application.
// Wall detection must also restart after an errored size: comparing a
// speedup against one measured two sizes back would invent a wall. The
// injected runner makes speedup equal the processor count, so the
// monotone apps (and the errored one, across its gap) end wall-free.
func TestScalingDegradesOnCellError(t *testing.T) {
	boom := errors.New("injected cell failure")
	restore := swapRunCell(func(a App, s Scale, impl Impl, procs int) (apps.Result, error) {
		if a.Name == "Sweep3D" {
			return apps.Result{}, boom
		}
		if a.Name == "Water" && impl == OMP && procs == 16 {
			return apps.Result{}, boom
		}
		d := sim.Second
		if impl == OMP {
			d /= sim.Time(procs)
		}
		return apps.Result{Time: d, Report: dsm.Report{PageBytes: 100, SyncBytes: 50, GCBytes: 10}}, nil
	})
	defer restore()

	var buf bytes.Buffer
	if err := TableScaling(&buf, Test, []int{8, 16, 32}); err != nil {
		t.Fatalf("TableScaling aborted instead of degrading: %v", err)
	}
	out := buf.String()
	lines := strings.Split(out, "\n")
	rowsWith := func(substrs ...string) int {
		c := 0
		for _, l := range lines {
			ok := true
			for _, s := range substrs {
				ok = ok && strings.Contains(l, s)
			}
			if ok {
				c++
			}
		}
		return c
	}
	if rowsWith("Sweep3D", "seq", "ERROR") != 1 {
		t.Errorf("Sweep3D's failed sequential baseline did not print as one error row:\n%s", out)
	}
	if got := rowsWith("ERROR"); got != 2 {
		t.Errorf("%d ERROR rows, want exactly 2 (Sweep3D/seq and Water/16):\n%s", got, out)
	}
	if rowsWith("Water", "8", "8.00") != 1 {
		t.Errorf("Water's 8-processor row missing despite only its 16-node cell failing:\n%s", out)
	}
	if rowsWith("32", "32.00") != len(Apps)-1 {
		t.Errorf("expected a 32-processor row for every app but Sweep3D:\n%s", out)
	}
	// procs-proportional speedups never flatten, and Water's 32-node cell
	// must be compared against nothing (its predecessor errored), not
	// against the 8-node row.
	if got := rowsWith("no wall up to 32"); got != len(Apps)-1 {
		t.Errorf("%d wall-free apps, want %d (every app but Sweep3D):\n%s", got, len(Apps)-1, out)
	}
	if rowsWith("wall at") != 0 {
		t.Errorf("spurious wall detected across an errored cell:\n%s", out)
	}
}

func TestScalingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("16-node runs of all seven apps are slow under -short")
	}
	var buf bytes.Buffer
	if err := TableScaling(&buf, Test, []int{8, 16}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, a := range Apps {
		if !strings.Contains(out, a.Name) {
			t.Errorf("scaling table missing app %s", a.Name)
		}
	}
	for _, a := range Apps {
		for _, p := range []int{8, 16} {
			res, err := cachedVerified(a, Test, OMP, p)
			if err != nil {
				t.Fatalf("%s at %d procs: %v", a.Name, p, err)
			}
			if res.PageBytes == 0 || res.SyncBytes == 0 {
				t.Errorf("%s at %d procs: uncategorized traffic (page %d, sync %d bytes)",
					a.Name, p, res.PageBytes, res.SyncBytes)
			}
			if gotM, gotB := res.PageMsgs+res.SyncMsgs+res.GCMsgs, res.PageBytes+res.SyncBytes+res.GCBytes; gotM != res.Messages || gotB != res.Bytes {
				t.Errorf("%s at %d procs: categories sum to %d msgs / %d bytes, run counted %d / %d",
					a.Name, p, gotM, gotB, res.Messages, res.Bytes)
			}
			_, _, _, binding := scalingShares(res)
			if binding == "-" {
				t.Errorf("%s at %d procs: no binding cost attributed", a.Name, p)
			}
		}
	}
}
