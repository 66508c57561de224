package sim

// Platform holds every calibration constant of the simulated testbed in one
// place. The defaults model the paper's platform: eight 200 MHz Pentium Pro
// workstations running FreeBSD, connected by a switched, full-duplex
// 100 Mbps Ethernet; TreadMarks speaks UDP/IP and MPICH speaks TCP.
//
// The SC'98 paper's Section 6 reports the platform characteristics we
// calibrate against (the literal digits were lost in the text extraction,
// so the values below are the canonical ones from the TreadMarks
// literature; `nowbench -micro` prints what the model yields for each,
// harness.TestMicroResultsInPaperBands holds them to these bands, and the
// README's "One fetch exchange" section records the diff and page rows):
//
//   - UDP/IP round-trip for a 1-byte message: 126 µs
//   - lock acquisition: 170–700 µs (emerges from the protocol)
//   - 8-processor barrier: ≈ 700 µs (emerges from the protocol)
//   - obtaining a diff: 313–827 µs (emerges from the protocol)
//   - MPICH TCP empty-message round trip: 200 µs
//   - MPICH maximum bandwidth: 8.6 MB/s
type Platform struct {
	// FlopNS is the virtual cost, in nanoseconds, of one floating-point
	// operation at the sustained (not peak) rate of the modeled CPU.
	FlopNS float64

	// UDP is the cost profile used by the DSM (TreadMarks uses UDP/IP).
	UDP WireProfile
	// TCP is the cost profile used by MPI (MPICH uses TCP).
	TCP WireProfile

	// Interrupt is the cost charged to a node's application thread each
	// time its protocol server handles an incoming request (the SIGIO
	// handler in real TreadMarks). This is what makes flush's 2(n-1)
	// message broadcast disturb every node, per Section 3.2.3.
	Interrupt Time

	// RequestService is the fixed cost of serving a protocol request that
	// needs no diffing (lock forward, barrier bookkeeping, page lookup).
	RequestService Time

	// DiffCreate is the fixed cost of creating one diff by comparing a
	// page with its twin; DiffPerByte is added per byte of the page
	// scanned. Together with message costs this lands diff fetches in the
	// paper's 313–827 µs range.
	DiffCreate  Time
	DiffPerByte float64

	// DiffApply is the fixed cost of applying one received diff;
	// DiffApplyPerByte is added per byte of diff data written.
	DiffApply        Time
	DiffApplyPerByte float64

	// TwinCopy is the cost of creating a twin (copying one page) on the
	// first write to a read-only page, and PageCopy the cost of copying a
	// full page into a reply.
	TwinCopy Time
	PageCopy Time

	// FaultOverhead is the fixed kernel/handler cost of taking an access
	// fault (SIGSEGV delivery and dispatch in real TreadMarks).
	FaultOverhead Time

	// MPIOverhead is the per-call software overhead of the MPI library on
	// top of raw TCP transmission.
	MPIOverhead Time

	// The hardware shared-memory primitives of the SMP backend and of the
	// hybrid backend's islands, calibrated to a bus-based 200 MHz Pentium
	// Pro SMP: dispatching one parallel region, a centralized hardware
	// barrier, a locked read-modify-write plus its bus transaction, a
	// semaphore operation on coherent memory, and a condition variable's
	// queue operation.
	SMPFork, SMPBarrier, SMPLock, SMPSema, SMPCond Time
}

// WireProfile is the timing model of one transport: a message of n payload
// bytes occupies the wire for OneWay + n·PerByteNS nanoseconds, and every
// message additionally carries HeaderBytes of protocol header that count
// toward the transmitted volume statistics.
type WireProfile struct {
	// OneWay is the fixed one-way latency of a minimal message,
	// including send/receive software overheads.
	OneWay Time
	// PerByteNS is the additional nanoseconds per payload byte
	// (the inverse of effective bandwidth).
	PerByteNS float64
	// HeaderBytes is the per-message header overhead added to the byte
	// statistics (IP + UDP/TCP + protocol header).
	HeaderBytes int
}

// Latency returns the one-way virtual latency of a message with n payload
// bytes.
func (w WireProfile) Latency(n int) Time {
	return w.OneWay + Time(float64(n)*w.PerByteNS)
}

// DefaultPlatform returns the calibrated model of the paper's testbed.
// Callers may copy and modify it for sensitivity studies.
func DefaultPlatform() *Platform {
	return &Platform{
		// 25 ns/flop ≈ 40 MFLOPS sustained: what a 200 MHz Pentium Pro
		// delivers on memory-traffic-heavy FP kernels (peak is 200
		// MFLOPS; NAS-class codes sustain a fifth of peak).
		FlopNS: 25,

		// 126 µs measured UDP RTT for 1 byte → 63 µs one way.
		// 100 Mbps ≈ 11.1 MB/s effective → 90 ns per byte.
		UDP: WireProfile{OneWay: 63 * Microsecond, PerByteNS: 90, HeaderBytes: 36},

		// 200 µs empty-message TCP RTT → 100 µs one way.
		// 8.6 MB/s maximum bandwidth → 116 ns per byte.
		TCP: WireProfile{OneWay: 100 * Microsecond, PerByteNS: 116, HeaderBytes: 52},

		Interrupt:      25 * Microsecond,
		RequestService: 15 * Microsecond,

		DiffCreate:  40 * Microsecond,
		DiffPerByte: 15,

		DiffApply:        10 * Microsecond,
		DiffApplyPerByte: 10,

		TwinCopy: 20 * Microsecond,
		PageCopy: 25 * Microsecond,

		FaultOverhead: 30 * Microsecond,

		MPIOverhead: 20 * Microsecond,

		SMPFork:    2 * Microsecond,
		SMPBarrier: 1 * Microsecond,
		SMPLock:    300 * Nanosecond,
		SMPSema:    300 * Nanosecond,
		SMPCond:    500 * Nanosecond,
	}
}

// ComputeCost converts a floating-point-operation count to virtual time.
func (p *Platform) ComputeCost(flops float64) Time {
	if flops <= 0 {
		return 0
	}
	return Time(flops * p.FlopNS)
}
