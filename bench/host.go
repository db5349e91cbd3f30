package main

import (
	"crypto/sha256"
	"math"
	"time"
)

// kernelSink keeps the reference kernel's results alive.
var kernelSink float64

// referenceKernel is a fixed piece of CPU work that runs no repository
// code: hashing, floating-point arithmetic and map updates, the mix the
// synthesizer's hot paths are made of.
func referenceKernel() {
	buf := make([]byte, 64<<10)
	for i := range buf {
		buf[i] = byte(i)
	}
	var acc float64
	for r := 0; r < 8; r++ {
		h := sha256.Sum256(buf)
		acc += float64(h[0])
	}
	x := 1.0
	for i := 0; i < 200_000; i++ {
		x = math.Sqrt(x*1.000001+float64(i&7)) + 0.5
	}
	m := make(map[int]float64, 1024)
	for i := 0; i < 20_000; i++ {
		m[i&1023] += float64(i)
	}
	kernelSink = acc + x + m[7]
}

// hostSpeed is the median time of n runs of the reference kernel, in
// seconds: how fast this host is right now. Every run prints it: on a
// shared host the CPU's speed can drift within minutes, and every timing
// drifts with it, so a slow run can be told from a slow commit.
func hostSpeed(n int) float64 {
	ts := make([]float64, n)
	for i := range ts {
		start := time.Now()
		referenceKernel()
		ts[i] = time.Since(start).Seconds()
	}
	return median(ts)
}
