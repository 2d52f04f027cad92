package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// maxErrs bounds how many failure messages one loop keeps for stderr.
const maxErrs = 20

// epochLength is how long clients run between two host-speed calibrations.
const epochLength = 3 * time.Second

// runClients runs n closed-loop clients, each calling op for its next
// operation as soon as the previous one returns, until done says to stop
// (nil: once d has elapsed). It measures, epoch by epoch, wall time,
// process CPU time and ops, and across the loop the heap bytes allocated and
// the largest resident set sampled every rssEvery.
//
// The loop runs in epochs of epochLength. Before the first and after every
// epoch, once every client has finished its op, the calibration kernel runs
// alone; an epoch's speed factor is calNominalMS over the mean of the two
// kernel times around it. rec, when not nil, is told where each epoch
// starts and ends, and decides whether its ops are traced.
func runClients(rec *recorder, n int, d time.Duration, done func(ops int, elapsed time.Duration) bool,
	op func(client int) (sample, error)) loopResult {
	if done == nil {
		done = func(_ int, elapsed time.Duration) bool { return elapsed >= d }
	}
	var (
		mu  sync.Mutex
		lr  loopResult
		ms0 runtime.MemStats
		ms1 runtime.MemStats
	)
	cal := newCalibrator()
	stopRSS := make(chan struct{})
	peakRSS := make(chan float64)
	go sampleRSS(stopRSS, peakRSS)
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	lr.cal = append(lr.cal, cal.measure())
	finished := func() bool { return done(len(lr.samples), time.Since(start)) }
	for stop := false; !stop; {
		first := len(lr.samples)
		traced := rec.startEpoch(len(lr.epochs))
		epochStart, cpu0 := time.Now(), processCPU()
		epochEnd := epochStart.Add(epochLength)
		var wg sync.WaitGroup
		for c := 0; c < n; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for {
					mu.Lock()
					stop := finished() || time.Now().After(epochEnd)
					mu.Unlock()
					if stop {
						return
					}
					cpu := processCPU()
					s, err := op(c)
					s.cpuMS = float64((processCPU() - cpu).Microseconds()) / 1e3 / float64(n)
					s.traced = traced
					mu.Lock()
					lr.samples = append(lr.samples, s)
					if err != nil && len(lr.errs) < maxErrs {
						lr.errs = append(lr.errs, err.Error())
					}
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		e := epoch{wall: time.Since(epochStart), cpu: processCPU() - cpu0, ops: len(lr.samples) - first}
		rec.endEpoch()
		stop = finished()
		lr.cal = append(lr.cal, cal.measure())
		e.speed = calNominalMS / ((lr.cal[len(lr.cal)-2] + lr.cal[len(lr.cal)-1]) / 2)
		for i := first; i < len(lr.samples); i++ {
			lr.samples[i].speed = e.speed
		}
		lr.epochs = append(lr.epochs, e)
	}
	lr.wall = time.Since(start)
	close(stopRSS)
	lr.peakRSS = <-peakRSS
	runtime.ReadMemStats(&ms1)
	lr.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	return lr
}

// wholeRounds returns a stop rule for a loop that visits a fixed set of size
// inputs once per round: stop at the round boundary nearest to d, after at
// least one round, so every run weighs each input alike.
func wholeRounds(d time.Duration, size int) func(int, time.Duration) bool {
	return func(ops int, elapsed time.Duration) bool {
		if ops == 0 || ops%size != 0 {
			return false
		}
		perRound := elapsed / time.Duration(ops/size)
		return elapsed+perRound/2 >= d
	}
}

// epoch is what one epoch of a loop measured.
type epoch struct {
	wall, cpu time.Duration
	ops       int
	speed     float64 // calibration factor (see runClients)
}

// rssEvery is how often sampleRSS reads the resident set.
const rssEvery = 20 * time.Millisecond

// sampleRSS reads VmRSS every rssEvery until stop closes, then sends the
// largest value seen, in MB, on peak.
func sampleRSS(stop <-chan struct{}, peak chan<- float64) {
	tick := time.NewTicker(rssEvery)
	defer tick.Stop()
	most := statusMB("VmRSS")
	for {
		select {
		case <-stop:
			peak <- max(most, statusMB("VmRSS"))
			return
		case <-tick.C:
			most = max(most, statusMB("VmRSS"))
		}
	}
}

// processCPU returns the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// statusMB returns a memory field of /proc/self/status, such as VmRSS, in
// MB (0 if it cannot be read).
func statusMB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// quantile returns the q-quantile of sorted xs by linear interpolation
// between closest ranks; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// median returns the median of xs without reordering the caller's slice.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
