package main

import "sync"

// The reference box (a 2-vCPU VM) changes speed with its neighbours: the
// same pass has measured 1.25 s in a quiet quarter of an hour and 1.75 s in
// the next, CPU time inflating with it. Raw host seconds would therefore
// "regress" by 40 % with no change to the code. Every run times a fixed
// kernel alongside its passes, and host_wall_s and setup_s are reported in
// reference seconds: raw seconds × referenceCalibS ÷ the run's median kernel
// time. That cuts the shift between speed states to about a third; the raw
// values and the factor stay in the record.
//
// The kernel uses the standard library only — page-sized allocation and
// copying, a floating-point loop, an uncontended mutex, goroutine hand-offs
// over channels: what the simulator spends host time on — and nothing from
// internal/, so no change to the program under test can move it.

// referenceCalibS is the kernel's median time on the reference box when
// quiet; it only fixes the scale of the reported seconds.
const referenceCalibS = 0.100

var calibSink float64

func calibrate() float64 {
	t0 := nowNS()
	var keep [][]byte
	src := make([]byte, 4096)
	for i := 0; i < 24576; i++ { // 96 MiB in page-sized chunks
		b := make([]byte, 4096)
		copy(b, src)
		if i%64 == 0 {
			keep = append(keep, b)
		}
	}
	x := 1.0
	for i := 0; i < 12_000_000; i++ {
		x = x*1.0000001 + 0.5
	}
	calibSink = x + float64(len(keep))
	var mu sync.Mutex
	n := 0
	for i := 0; i < 1_500_000; i++ {
		mu.Lock()
		n++
		mu.Unlock()
	}
	ping, pong := make(chan int), make(chan int)
	go func() {
		defer close(pong)
		for v := range ping {
			pong <- v
		}
	}()
	for i := 0; i < 30000; i++ {
		ping <- i
		<-pong
	}
	close(ping)
	<-pong
	return sinceS(t0)
}
