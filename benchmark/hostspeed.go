package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"strconv"
	"time"
)

// The host's speed drifts. On a shared machine one pass can take 40%
// longer ten minutes later, because neighbours load the CPU, and the
// drift inflates CPU time just as it does wall time. The harness
// measures it with a fixed reference kernel that it interleaves with the
// workload at op boundaries, spending calFrac of the run on it, and
// scales its time metrics to the speed the kernel had on the reference
// host. The kernel's time is taken out of the passes it interrupts. The
// garbage collector is idle while the kernel runs, so no collection the
// simulator started can slow the kernel or drop out of a pass's time.

const (
	calFrac = 0.1
	// refUnitSec is one kernel unit's host time on the reference host: a
	// 2-vCPU Intel Xeon VM, unloaded.
	refUnitSec = 0.00125
)

// hostProbe runs the reference kernel: pushes and pops on a binary
// heap, lookups in a 32k-entry map and float math, as the simulator's
// event loop does. It allocates nothing once built.
type hostProbe struct {
	heap []uint64
	tab  map[uint64]float64
	x    uint64
	sink float64

	debt  float64 // seconds of kernel time owed to calFrac
	last  time.Time
	units int     // kernel units timed
	sec   float64 // host seconds of the timed units
	spent float64 // host seconds in the kernel, untimed units included
}

const (
	probeKeys  = 1 << 15
	chunkUnits = 4
)

func newHostProbe() *hostProbe {
	p := &hostProbe{
		heap: make([]uint64, 0, 4096),
		tab:  make(map[uint64]float64, probeKeys),
		x:    88172645463325252,
		last: time.Now(),
	}
	for i := uint64(0); i < probeKeys; i++ {
		p.tab[i*2654435761] = float64(i)
	}
	return p
}

// unit runs a fixed amount of kernel work.
func (p *hostProbe) unit() {
	h, x := p.heap[:0], p.x
	for i := 0; i < 20000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h = append(h, x)
		for j := len(h) - 1; j > 0; {
			up := (j - 1) / 2
			if h[up] <= h[j] {
				break
			}
			h[up], h[j] = h[j], h[up]
			j = up
		}
		if n := len(h) - 1; n >= 2048 {
			h[0] = h[n]
			h = h[:n]
			for j := 0; ; {
				c := 2*j + 1
				if c >= n {
					break
				}
				if c+1 < n && h[c+1] < h[c] {
					c++
				}
				if h[j] <= h[c] {
					break
				}
				h[j], h[c] = h[c], h[j]
				j = c
			}
		}
		p.sink += p.tab[(x&(probeKeys-1))*2654435761] * math.Sqrt(float64(x>>40))
	}
	p.heap, p.x = h, x
}

// tick is called at op boundaries: between the ops of a pass, and
// before each pass and set-up repetition. It runs the kernel for calFrac
// of the time since the previous tick, in chunks. Disabling the collector
// first waits for a mark phase in progress to finish, and the kernel
// allocates nothing, so no collection overlaps it. Each chunk's first
// unit only brings the kernel's tables back into cache and is not timed,
// so the measured speed does not depend on what ran before. A nil probe
// does nothing.
func (p *hostProbe) tick() {
	if p == nil {
		return
	}
	p.debt += time.Since(p.last).Seconds() * calFrac
	if p.debt > 0 || p.units == 0 {
		gcPercent := debug.SetGCPercent(-1)
		for p.debt > 0 || p.units == 0 {
			t0 := time.Now()
			p.unit()
			t := time.Now()
			for i := 0; i < chunkUnits; i++ {
				p.unit()
			}
			p.sec += time.Since(t).Seconds()
			p.units += chunkUnits
			d := time.Since(t0).Seconds()
			p.spent += d
			p.debt -= d
		}
		debug.SetGCPercent(gcPercent)
	}
	p.last = time.Now()
}

// scale converts this run's host seconds to reference-host seconds.
func (p *hostProbe) scale() float64 { return refUnitSec * float64(p.units) / p.sec }

// Peak resident set per pass: Linux resets the high-water mark when "5"
// is written to /proc/self/clear_refs and reports it as VmHWM.

func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(status, []byte("\n")) {
		if v, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := bytes.Fields(v) // "<n> kB"
			if len(f) == 0 {
				return 0, fmt.Errorf("empty VmHWM line")
			}
			kb, err := strconv.Atoi(string(f[0]))
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return float64(kb) * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
