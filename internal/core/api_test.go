package core

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/dsm"
)

// The thread API's exported method sets, pinned by reflection: go doc does
// not list the methods dsm.Node promotes from its default client (an
// alias-typed embedded field) or those TC promotes from its embedded
// threadOps interface, so a change to either set would show nowhere else.
var threadAPI = map[reflect.Type][]string{
	reflect.TypeFor[*dsm.Client](): {
		"Acquire", "Barrier", "Charge", "Compute", "CondBroadcast", "CondSignal", "CondWait",
		"Flush", "ID", "Now", "NumProcs", "Poll", "ReadBytes", "ReadF64", "ReadF64s",
		"ReadI32", "ReadI32s", "ReadI64", "Release", "RunParallel", "SemaSignal", "SemaWait",
		"WriteBytes", "WriteF64", "WriteF64s", "WriteI32", "WriteI32s", "WriteI64",
	},
	reflect.TypeFor[*dsm.Node](): {
		"Acquire", "Barrier", "Charge", "Compute", "CondBroadcast", "CondSignal", "CondWait",
		"Flush", "ID", "NewClient", "Now", "NumProcs", "Poll", "ReadBytes", "ReadF64",
		"ReadF64s", "ReadI32", "ReadI32s", "ReadI64", "Release", "RunParallel", "SemaSignal",
		"SemaWait", "Stats", "Sys", "WriteBytes", "WriteF64", "WriteF64s", "WriteI32",
		"WriteI32s", "WriteI64",
	},
	reflect.TypeFor[*TC](): {
		"Args", "Barrier", "Compute", "CondBroadcast", "CondSignal", "CondWait", "Critical",
		"CriticalEnter", "CriticalExit", "Flush", "Now", "NumThreads", "ReadBytes", "ReadF64",
		"ReadF64s", "ReadI32", "ReadI32s", "ReadI64", "SemaSignal", "SemaWait", "ThreadNum",
		"Threadprivate", "Worker", "WriteBytes", "WriteF64", "WriteF64s", "WriteI32",
		"WriteI32s", "WriteI64",
	},
	reflect.TypeFor[*MC](): {
		"Args", "Barrier", "Compute", "CondBroadcast", "CondSignal", "CondWait", "Critical",
		"CriticalEnter", "CriticalExit", "Flush", "Now", "NumThreads", "Parallel", "ParallelDo",
		"ReadBytes", "ReadF64", "ReadF64s", "ReadI32", "ReadI32s", "ReadI64", "SemaSignal",
		"SemaWait", "ThreadNum", "Threadprivate", "Worker", "WriteBytes", "WriteF64",
		"WriteF64s", "WriteI32", "WriteI32s", "WriteI64",
	},
}

func TestThreadAPIMethodSets(t *testing.T) {
	for typ, want := range threadAPI {
		var got []string
		for i := range typ.NumMethod() {
			got = append(got, typ.Method(i).Name)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%v exports %q, want %q", typ, got, want)
		}
	}
}

// TestRegionThreadIsAClient: on every backend, a region body's thread —
// what TC.Worker hands it — is a *dsm.Client, and that type satisfies
// Worker; the NOW master is the node, which does too.
func TestRegionThreadIsAClient(t *testing.T) {
	worker := reflect.TypeFor[Worker]()
	for _, typ := range []reflect.Type{reflect.TypeFor[*dsm.Client](), reflect.TypeFor[*dsm.Node]()} {
		if !typ.Implements(worker) {
			t.Errorf("%v does not implement Worker", typ)
		}
	}
	forEachBackend(t, func(t *testing.T, bk BackendKind) {
		p := NewProgram(Config{Threads: 4, Backend: bk})
		defer p.Close()
		var mu sync.Mutex
		types := map[reflect.Type]int{}
		p.RegisterRegion("types", func(tc *TC) {
			mu.Lock()
			types[reflect.TypeOf(tc.Worker())]++
			mu.Unlock()
		})
		if err := p.Run(func(m *MC) { m.Parallel("types", NoArgs()) }); err != nil {
			t.Fatal(err)
		}
		if want := map[reflect.Type]int{reflect.TypeFor[*dsm.Client](): 4}; !reflect.DeepEqual(types, want) {
			t.Errorf("regions ran on %v, want %v", types, want)
		}
	})
}
