package main

import "time"

// The benchmark's single wall-clock reader. Everything under
// internal/ runs on virtual time; the benchmark is the one place that
// asks what the simulator costs the host, so every host timing in this
// package goes through nowNS.

//nowlint:allow detfree -- the benchmark measures HOST time by design: this is its only wall-clock read, it feeds reported metrics only, and no simulation input or virtual clock ever sees it
func wall() time.Time { return time.Now() }

var processStart = wall()

// nowNS returns monotonic host nanoseconds since process start.
func nowNS() int64 { return int64(wall().Sub(processStart)) }

// sinceS returns the host seconds elapsed since t0 (a nowNS reading).
func sinceS(t0 int64) float64 { return float64(nowNS()-t0) / 1e9 }
