package main

import (
	"math"
	"sync"
	"time"
)

// The reference core. The 2-vCPU host this benchmark was tuned on changes
// speed under the benchmark by up to 1.8x, in spells of seconds to tens of
// minutes: the same edge-steady seed read 302, 247 and 254 frames per
// CPU-second in three consecutive runs, and two 10-run sets of edge-handoff
// taken 20 minutes apart had medians 1.56x apart. Process CPU time does not
// remove this — the CPU seconds themselves get slower (a co-tenant on the
// same physical core or memory system, not steal).
//
// So every timed figure is expressed in reference-core time: each block of
// ops is followed by a short burst of refKernel, a fixed kernel owned by the
// benchmark (not program code, so no program change can move it), and the
// block's CPU time and op latencies are scaled by how fast the burst ran
// relative to refRate. refKernel has an integer half (block transforms,
// like decode) and a floating-point half (per-pixel ray arithmetic, like
// the renderer), because the host's slow spells hit the two differently.
// Measured in ~4 s windows over 4 minutes, decode+detect varied 222-403
// frames/CPU-s while its ratio to the integer half stayed within about +-8%;
// clip rendering varied with a 14% CV, 13% against the integer half alone
// and 7% against both halves.

// refRate is the nominal reference-core speed in refKernel calls per second.
// It fixes only the scale of the normalised figures.
const refRate = 500

// refBurst is the number of refKernel calls in one speed sample (about
// 2.5 ms).
const refBurst = 2

// refCore holds the reference kernel's planes; bursts are serialised.
type refCore struct {
	mu   sync.Mutex
	a, b []uint8
	f    []float64
}

const refW, refH = 320, 240

func newRefCore() *refCore {
	r := &refCore{a: make([]uint8, refW*refH), b: make([]uint8, refW*refH), f: make([]float64, refW*refH)}
	for i := range r.a {
		r.a[i], r.b[i] = uint8(i*7), uint8(i*13)
	}
	return r
}

// speed runs n bursts and returns the host's speed relative to the
// reference core (2 = twice as fast), the median over the bursts.
func (r *refCore) speed(n int) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := make([]float64, n)
	for i := range s {
		t0 := time.Now()
		for k := 0; k < refBurst; k++ {
			refKernel(r.a, r.b, r.f)
		}
		s[i] = refBurst / time.Since(t0).Seconds() / refRate
	}
	return median(s)
}

// refKernel runs both halves of the reference work once over 320x240
// planes: per 8x8 block a residual, a butterfly transform of its rows and a
// clamped write-back; then per pixel a normalised ray direction, a
// perspective divide and a hashed texture value blended into f.
func refKernel(a, b []uint8, f []float64) float64 {
	acc := 0
	var blk [64]int32
	for by := 0; by+8 <= refH; by += 8 {
		for bx := 0; bx+8 <= refW; bx += 8 {
			for y := 0; y < 8; y++ {
				row := (by+y)*refW + bx
				for x := 0; x < 8; x++ {
					blk[y*8+x] = int32(a[row+x]) - int32(b[row+x])
				}
			}
			for y := 0; y < 8; y++ {
				r := blk[y*8 : y*8+8]
				s0, s1, s2, s3 := r[0]+r[7], r[1]+r[6], r[2]+r[5], r[3]+r[4]
				d0, d1, d2, d3 := r[0]-r[7], r[1]-r[6], r[2]-r[5], r[3]-r[4]
				r[0], r[4] = s0+s1+s2+s3, s0-s1-s2+s3
				r[2], r[6] = (s0-s3)*3+(s1-s2), (s0-s3)-(s1-s2)*3
				r[1], r[3] = d0*5+d1*4+d2*3+d3, d0*4-d1-d2*5-d3*3
				r[5], r[7] = d0*3-d1*5+d2+d3*4, d0-d1*3+d2*4-d3*5
			}
			for y := 0; y < 8; y++ {
				row := (by+y)*refW + bx
				for x := 0; x < 8; x++ {
					v := blk[y*8+x] >> 4
					if v < 0 {
						v = -v
					}
					acc += int(v)
					b[row+x] = uint8(int32(b[row+x]) + v&1)
				}
			}
		}
	}
	sum := float64(acc)
	for y := 0; y < refH; y++ {
		for x := 0; x < refW; x++ {
			dx := (float64(x) - refW/2) / 300
			dy := (float64(y) - refH/2) / 300
			n := math.Sqrt(dx*dx + dy*dy + 1)
			h := math.Floor(dx/n*37.5/(dy/n+1.3)) * 0.618
			t := h - math.Floor(h)
			f[y*refW+x] = t*0.7 + f[y*refW+x]*0.3
			sum += t
		}
	}
	return sum
}

// setupSampleEvery is how often the host speed is sampled during a set-up.
const setupSampleEvery = 200 * time.Millisecond

// during runs f while sampling the host speed: three bursts right before,
// one every setupSampleEvery while f runs, and three right after. It
// returns f's error and the median speed.
func (r *refCore) during(f func() error) (float64, error) {
	samples := []float64{r.speed(3)}
	stop := make(chan struct{})
	sampled := make(chan []float64)
	go func() {
		var s []float64
		tick := time.NewTicker(setupSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				sampled <- s
				return
			case <-tick.C:
				s = append(s, r.speed(1))
			}
		}
	}()
	err := f()
	close(stop)
	samples = append(samples, <-sampled...)
	samples = append(samples, r.speed(3))
	return median(samples), err
}
