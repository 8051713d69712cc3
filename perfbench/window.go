package main

import (
	"time"
)

// subWindow is the target length of the slices a measured window is cut
// into. The rates (commits per second, abort share, CPU per commit) are
// computed per slice and reported as the median over the slices, so a
// stretch of a run slowed by something outside the program, such as
// another tenant's burst of CPU, moves them less than it would move a
// whole-window figure.
const subWindow = 4 * time.Second

// slicing returns how many slices a window of d is cut into, an odd
// number so the median is a slice's own value, and their length.
func slicing(d time.Duration) (int, time.Duration) {
	n := max(1, int(d/subWindow))
	if n%2 == 0 {
		n--
	}
	return n, d / time.Duration(n)
}

// slice is what one sub-window saw: how many attempts ended in it, how,
// and the process CPU time it used.
type slice struct {
	secs            float64
	commits, aborts uint64
	cpu             time.Duration
}

// cutSlices cuts attempts into n slices of length l by when they ended;
// attempts that ended after n*l (in flight when the window closed) are
// left out. cpuMarks, when not nil, holds n+1 readings of the process CPU
// time, one at each slice edge.
func cutSlices(attempts []attempt, n int, l time.Duration, cpuMarks []time.Duration) []slice {
	out := make([]slice, n)
	for _, a := range attempts {
		i := int(a.end / l)
		if a.end < 0 || i >= n {
			continue
		}
		if a.aborted {
			out[i].aborts++
		} else {
			out[i].commits++
		}
	}
	for i := range out {
		out[i].secs = l.Seconds()
		if len(cpuMarks) == n+1 {
			out[i].cpu = cpuMarks[i+1] - cpuMarks[i]
		}
	}
	return out
}

// medianOver is the median over the slices of f.
func medianOver(slices []slice, f func(slice) float64) float64 {
	vals := make([]float64, len(slices))
	for i, s := range slices {
		vals[i] = f(s)
	}
	return median(vals)
}

// markCPU reads the process CPU time at start and at each of the n slice
// edges after it, sleeping until each.
func markCPU(start time.Time, l time.Duration, n int) ([]time.Duration, error) {
	marks := make([]time.Duration, 0, n+1)
	for k := 0; k <= n; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k) * l)))
		u, err := readUsage()
		if err != nil {
			return nil, err
		}
		marks = append(marks, u.cpu)
	}
	return marks, nil
}
