package main

import (
	"runtime"
	"sync"
	"time"
)

// The machines this benchmark runs on are shared: for minutes at a time a
// neighbour slows every core by 1.2–1.5×, which no amount of repetition
// inside a 20-second run can average away (see README, "Noise floor"). So the
// benchmark carries its own yardstick — a fixed piece of arithmetic that
// shares no code with the program under test — runs it right before and after
// every timed operation, and divides the operation's wall time by how much
// slower than nominal the yardstick ran just then. Timings are therefore
// reported in seconds at nominal machine speed. Measured over 12 minutes of
// alternating yardstick and Fit, this cut Fit's spread from 8.8 % to 3.1 %.

// yardstickNominal is what one yardstick pass takes on the reference machine
// class (2-core Xeon @ 2.10 GHz VM) when nothing else runs. On another class
// every timing is off by one constant factor; comparisons are unaffected.
const yardstickNominal = 16 * time.Millisecond

// dilation runs one yardstick pass — a 64×64 complex matrix product, 40
// times, on every core at once, like the program's own kernels — and returns
// its wall time over the nominal one: 1 on an undisturbed reference machine,
// 1.3 when the machine is currently 1.3× slower.
func dilation() float64 {
	const m, reps = 64, 40
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := make([]complex128, m*m)
			b := make([]complex128, m*m)
			c := make([]complex128, m*m)
			for i := range a {
				a[i] = complex(float64(i%7)+0.5, float64(i%5)-1)
				b[i] = complex(float64(i%3)-0.5, float64(i%11)*0.1)
			}
			for r := 0; r < reps; r++ {
				for i := 0; i < m; i++ {
					for k := 0; k < m; k++ {
						aik := a[i*m+k]
						for j := 0; j < m; j++ {
							c[i*m+j] += aik * b[k*m+j]
						}
					}
				}
			}
			runtime.KeepAlive(c)
		}()
	}
	wg.Wait()
	return float64(time.Since(t0)) / float64(yardstickNominal)
}

// pace divides wall times by the dilation measured around them. A pace is
// stepped once between timed operations; each step closes the interval since
// the previous one and yields the factor that interval's timings are
// multiplied by (the inverse of the mean dilation at its two ends).
type pace struct {
	last    float64
	samples []float64
}

func newPace() *pace { return &pace{last: dilation()} }

func (p *pace) step() (scale float64) {
	next := dilation()
	mean := (p.last + next) / 2
	p.last = next
	p.samples = append(p.samples, mean)
	return 1 / mean
}
