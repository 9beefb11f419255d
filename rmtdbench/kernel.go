package main

import (
	"slices"
	"strconv"
	"time"
)

// refKernel is the host-speed reference. Each sample clears a map and
// inserts refKeys short string keys, links as many nodes into a list in a
// seeded random order, sorts a seeded shuffle of the keys, and walks the
// list looking every node's key up: string hashing, map probes, pointer
// chasing and a comparison sort over about 70 KiB, the same kinds of work
// rmtd's handlers do. Its memory is allocated once, in newRefKernel, so it
// allocates nothing per sample and the program's GC can neither assist nor
// delay it (TestKernelAllocatesNothing). On the reference host this mix
// followed the ops' run-to-run speed changes almost one for one, where a
// sort of integers changed only about three quarters as much as the ops
// did (see README.md).
type refKernel struct {
	keys   []string
	index  map[string]int
	nodes  []refNode
	sorted []string
	sink   uint64
}

type refNode struct {
	next *refNode
	key  string
}

// refKeys is the kernel's key and node count.
const refKeys = 600

func newRefKernel() *refKernel {
	k := &refKernel{
		index:  make(map[string]int, refKeys),
		nodes:  make([]refNode, refKeys),
		sorted: make([]string, refKeys),
	}
	for i := 0; i < refKeys; i++ {
		k.keys = append(k.keys, strconv.Itoa(i*7919+13))
	}
	return k
}

// refNominal is the kernel time that defines the benchmark's time unit: an
// op timed while the kernel takes refNominal is reported as measured, and
// one timed while the kernel takes 10% longer is scaled by 1/1.1. The value
// is the kernel's median on the 2-vCPU x86-64 VM the bounds were set on;
// changing it rescales every timing metric.
const refNominal = 140 * time.Microsecond

// run executes one sample and returns its wall time.
func (k *refKernel) run(seed uint64) time.Duration {
	start := time.Now()
	clear(k.index)
	x := seed*0x9e3779b97f4a7c15 | 1
	var head *refNode
	for i := range k.keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % refKeys)
		key := k.keys[(i+int(seed%refKeys))%refKeys]
		k.index[key] = i
		n := &k.nodes[j]
		n.next, n.key = head, key
		head = n
		k.sorted[i] = k.keys[j]
	}
	slices.Sort(k.sorted)
	// Nodes picked twice are relinked, which can close a cycle: walk at
	// most refKeys steps.
	for n, steps := head, 0; n != nil && steps < refKeys; n, steps = n.next, steps+1 {
		k.sink += uint64(k.index[n.key])
	}
	k.sink += uint64(len(k.sorted[refKeys/2]))
	return time.Since(start)
}

// refSample is one kernel timing, taken just before timed op `at`.
type refSample struct {
	at int
	d  time.Duration
}

// refWindow is how many samples on each side of an op its scale uses. Host
// speed moves within milliseconds: on the reference host narrower windows
// tracked the ops better than the whole run's median did.
const refWindow = 2

// scales returns, for each of n ops, the factor refNominal ÷ (the median
// kernel time of the samples around the op): the ±refWindow samples
// nearest the gap the op ran in. samples must be in op order and
// non-empty.
func scales(samples []refSample, n int) []float64 {
	out := make([]float64, n)
	window := make([]time.Duration, 0, 2*refWindow+1)
	b := 0 // index of the last sample taken at or before op i
	for i := 0; i < n; i++ {
		for b+1 < len(samples) && samples[b+1].at <= i {
			b++
		}
		lo, hi := max(0, b-refWindow+1), min(len(samples), b+refWindow+1)
		window = window[:0]
		for _, s := range samples[lo:hi] {
			window = append(window, s.d)
		}
		out[i] = float64(refNominal) / float64(medianDuration(window))
	}
	return out
}

func medianDuration(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
