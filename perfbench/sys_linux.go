package main

import (
	"runtime/metrics"
	"syscall"
)

// processCPUNs returns the process's user plus system CPU time.
func processCPUNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// maxRSSMB returns the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// heapInuseMB returns the bytes in in-use heap spans (live objects,
// garbage not yet swept and their free slots) in MiB, without stopping
// the world.
func heapInuseMB() float64 {
	s := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()+s[1].Value.Uint64()) / (1 << 20)
}
