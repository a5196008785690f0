package main

import (
	"fmt"
	"io"
	"math"
	"net"
	"time"
)

// calib is the calibration kernel: a fixed piece of work of the benchmark's
// own — nothing in it calls the module — run between the slices of the timed
// phase to read how fast the machine is at that moment. The hosts this runs on change speed by 15–30 % for seconds to
// minutes at a time (neighbours on the memory system and the hypervisor), and
// a run is too short to average that out; dividing each stretch of work by
// the kernel time measured around it takes the machine's state out of the
// number. The kernel has three parts, chosen because the workloads' wall
// time follows their sum closely (correlation 0.98–0.99 between the logarithm
// of a run's slice time and of its kernel reading, over ten runs per workload
// in each of three sittings), where pure-arithmetic loops barely move with
// the machine at all (±2 %):
//
//   - chase: 8 000 string-keyed map lookups folded into a second map — cache
//     and memory latency;
//   - alloc: 6 000 small short-lived allocations — the allocator and, when a
//     collection is running, its assists;
//   - echo: 40 round trips of 64 bytes over a loopback connection between two
//     goroutines — system calls, the netpoller, waking a parked thread.
type calib struct {
	keys   []string
	dict   map[string]int32
	scores map[int32]float64
	keep   [64][]byte
	a, b   net.Conn // the two ends of the loopback connection; b echoes
	buf    []byte
	err    error
}

// calibRef is the kernel's time on the sizing host in its quiet state.
// Calibrated metrics are scaled by it so that they read as seconds and
// queries per second of that host; it is a unit, not a measurement, and must
// never change.
const calibRef = 2 * time.Millisecond

// calibSlope is how much of the kernel's swing the workloads show: their time
// moves by about 0.8 % for every 1 % the kernel's does (slopes of 0.6–1.1 by
// workload and sitting; the kernel is all cache misses, allocation and system
// calls, a query is not). Over the three sittings 0.8 left the least spread;
// 1.0 over-corrected tcp and mixed by a third of the machine's swing. Like
// calibRef it is part of the metrics' definition and must never change.
const calibSlope = 0.8

// calibFactor is what a reading says about the machine: how many times slower
// than in its quiet state a workload runs.
func calibFactor(reading time.Duration) float64 {
	return math.Pow(float64(reading)/float64(calibRef), calibSlope)
}

func newCalib() (*calib, error) {
	c := &calib{
		dict:   make(map[string]int32, 40000),
		scores: make(map[int32]float64, 4096),
		buf:    make([]byte, 64),
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; len(c.dict) < 40000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := fmt.Sprintf("term%07d", x%10000000)
		if _, dup := c.dict[k]; !dup {
			c.dict[k] = int32(i)
			if i%5 == 0 {
				c.keys = append(c.keys, k)
			}
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("calibration: %w", err)
	}
	defer ln.Close()
	if c.a, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		return nil, fmt.Errorf("calibration: %w", err)
	}
	if c.b, err = ln.Accept(); err != nil {
		c.a.Close()
		return nil, fmt.Errorf("calibration: %w", err)
	}
	go func() { // ends when close shuts the connection
		buf := make([]byte, 64)
		for {
			if _, err := io.ReadFull(c.b, buf); err != nil {
				return
			}
			if _, err := c.b.Write(buf); err != nil {
				return
			}
		}
	}()
	return c, nil
}

func (c *calib) close() {
	c.a.Close()
	c.b.Close()
}

// sample runs the kernel once and returns how long it took.
func (c *calib) sample() time.Duration {
	t := time.Now()
	clear(c.scores)
	for _, k := range c.keys {
		id := c.dict[k]
		c.scores[id&4095] += float64(id)
	}
	for i := 0; i < 6000; i++ {
		c.keep[i&63] = make([]byte, 48+i&127)
		c.keep[i&63][0] = byte(i)
	}
	for i := 0; i < 40 && c.err == nil; i++ {
		if _, c.err = c.a.Write(c.buf); c.err == nil {
			_, c.err = io.ReadFull(c.a, c.buf)
		}
	}
	return time.Since(t)
}
