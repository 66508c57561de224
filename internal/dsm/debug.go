package dsm

import (
	"encoding/binary"
	"fmt"
	"math"
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

func oracleWrite(a Addr, src []byte) {
	if !debugOracleOn {
		return
	}
	oracleMu.Lock()
	for i, b := range src {
		off := int(a) + i
		pg := off / PageSize
		buf, ok := oracleMem[pg]
		if !ok {
			buf = make([]byte, PageSize)
			oracleMem[pg] = buf
		}
		buf[off%PageSize] = b
	}
	oracleMu.Unlock()
}

// oracleWriteF64s mirrors oracleWrite for the float64 bulk path.
func oracleWriteF64s(a Addr, src []float64) {
	if !debugOracleOn {
		return
	}
	buf := make([]byte, 8*len(src))
	for i, v := range src {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	oracleWrite(a, buf)
}

// oracleCheckF64s mirrors oracleCheck for the float64 bulk path.
func oracleCheckF64s(node int, a Addr, got []float64) {
	if !debugOracleOn {
		return
	}
	buf := make([]byte, 8*len(got))
	for i, v := range got {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	oracleCheck(node, a, buf)
}

func oracleCheck(node int, a Addr, got []byte) {
	if !debugOracleOn {
		return
	}
	oracleMu.Lock()
	defer oracleMu.Unlock()
	for i := range got {
		off := int(a) + i
		pg := off / PageSize
		var want byte // a page nobody wrote is its allocation zeros
		if buf, ok := oracleMem[pg]; ok {
			want = buf[off%PageSize]
		}
		if got[i] != want {
			oracleDiverges++
			fmt.Printf("ORACLE-DIVERGE node=%d addr=%d page=%d off=%d got=%d want=%d\n",
				node, off, pg, off%PageSize, got[i], want)
			return
		}
	}
}
