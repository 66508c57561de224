package dsm

import (
	"fmt"
	"sync"
)

// debugOracle, when enabled, keeps an authoritative shadow copy of every
// written byte (valid only for data-race-free programs whose sync order
// matches real time, which holds for lock-ordered tests). Reads compare
// against it and report the first divergence.
var (
	debugOracleOn  bool
	oracleMu       sync.Mutex
	oracleMem      map[int][]byte // per system instance? single-run tests only
	oracleDiverges int
)

// OracleDiverges reports how many divergent reads the shadow-memory
// checker has seen since the last SetDebugOracle(true).
func OracleDiverges() int {
	oracleMu.Lock()
	defer oracleMu.Unlock()
	return oracleDiverges
}

// SetDebugOracle enables the shadow-memory checker (single-System tests).
func SetDebugOracle(on bool) {
	oracleMu.Lock()
	debugOracleOn = on
	oracleMem = map[int][]byte{}
	oracleDiverges = 0
	oracleMu.Unlock()
}

// oracleSee shows the oracle one page's part of an access at a: a write
// records mem, a read compares mem with what was last written.
func oracleSee(node int, a Addr, mem []byte, write bool) {
	oracleMu.Lock()
	defer oracleMu.Unlock()
	for i, b := range mem {
		off := int(a) + i
		pg := off / PageSize
		buf, ok := oracleMem[pg]
		if write {
			if !ok {
				buf = make([]byte, PageSize)
				oracleMem[pg] = buf
			}
			buf[off%PageSize] = b
			continue
		}
		var want byte // a page nobody wrote is its allocation zeros
		if ok {
			want = buf[off%PageSize]
		}
		if b != want {
			oracleDiverges++
			fmt.Printf("ORACLE-DIVERGE node=%d addr=%d page=%d off=%d got=%d want=%d\n",
				node, off, pg, off%PageSize, b, want)
			return
		}
	}
}
