package abr

import (
	"time"

	"bba/internal/units"
)

// BufferTarget is a buffer-aware estimator algorithm in the style the
// paper's related work attributes to Tian and Liu [20]: "uses a buffer and
// a PID controller to compute the adjustment function applied to capacity
// estimates, balancing responsiveness and smoothness". The selected rate is
//
//	R = Ĉ · (1 + Kp·(B − B*)/B*)
//
// — proportional control that drives the buffer toward the set-point B*:
// above target it requests above the estimate (draining back), below
// target it under-requests (refilling). This is the "adjustment function"
// family of Figure 3 with F derived from a control law rather than a fixed
// curve.
type BufferTarget struct {
	// Alpha is the EWMA weight of the throughput estimator.
	Alpha float64
	// Target is the buffer set-point B*.
	Target time.Duration
	// Kp is the proportional gain.
	Kp float64
	// PanicBuffer floors the selection at R_min when nearly dry.
	PanicBuffer time.Duration
	// InitialEstimate seeds the estimator (stored history).
	InitialEstimate units.BitRate

	est units.BitRate
}

// NewBufferTarget returns the controller with set-point and gains typical
// of the published design (target 120 s, moderate gain).
func NewBufferTarget() *BufferTarget {
	return &BufferTarget{
		Alpha:       0.25,
		Target:      120 * time.Second,
		Kp:          0.6,
		PanicBuffer: 15 * time.Second,
	}
}

// Name implements Algorithm.
func (c *BufferTarget) Name() string { return "PID" }

// SeedCapacity implements CapacitySeeded.
func (c *BufferTarget) SeedCapacity(r units.BitRate) { c.InitialEstimate = r }

// Next implements Algorithm.
func (c *BufferTarget) Next(st State, s Stream) int {
	l := s.Ladder()
	if st.LastThroughput > 0 {
		if c.est == 0 {
			c.est = st.LastThroughput
		} else {
			c.est = units.BitRate(float64(c.est)*(1-c.Alpha) + float64(st.LastThroughput)*c.Alpha)
		}
	} else if c.est == 0 {
		c.est = c.InitialEstimate
	}
	if c.est == 0 || (st.PrevIndex >= 0 && st.Buffer < c.PanicBuffer) {
		return 0
	}
	err := (st.Buffer - c.Target).Seconds() / c.Target.Seconds()
	adj := 1 + c.Kp*err
	if adj < 0.1 {
		adj = 0.1
	}
	return l.HighestAtMost(c.est.Scale(adj))
}

// Elastic is a harmonic-filter controller in the style the paper's related
// work attributes to ELASTIC [5]: "first measures the network capacity
// through a harmonic filter, then drives the buffer to a set-point through
// a controller". The harmonic mean of the last N per-chunk throughputs is
// deliberately pessimistic under variability (slow samples dominate), and
// an integral term trims the selection to hold the buffer at the
// set-point.
type Elastic struct {
	// Window is the harmonic-filter depth in samples.
	Window int
	// Target is the buffer set-point.
	Target time.Duration
	// Kp and Ki are the controller gains.
	Kp, Ki float64
	// PanicBuffer floors the selection at R_min when nearly dry.
	PanicBuffer time.Duration
	// InitialEstimate seeds the filter (stored history).
	InitialEstimate units.BitRate

	samples  []units.BitRate
	integral float64
}

// NewElastic returns the controller with the published shape: a 5-sample
// harmonic filter and a 120 s set-point.
func NewElastic() *Elastic {
	return &Elastic{
		Window:      5,
		Target:      120 * time.Second,
		Kp:          0.4,
		Ki:          0.01,
		PanicBuffer: 15 * time.Second,
	}
}

// Name implements Algorithm.
func (c *Elastic) Name() string { return "ELASTIC" }

// SeedCapacity implements CapacitySeeded.
func (c *Elastic) SeedCapacity(r units.BitRate) { c.InitialEstimate = r }

// Next implements Algorithm.
func (c *Elastic) Next(st State, s Stream) int {
	l := s.Ladder()
	if st.LastThroughput > 0 {
		c.samples = append(c.samples, st.LastThroughput)
		if len(c.samples) > c.Window {
			c.samples = c.samples[1:]
		}
	}
	est := c.harmonic()
	if est == 0 {
		est = c.InitialEstimate
	}
	if est == 0 || (st.PrevIndex >= 0 && st.Buffer < c.PanicBuffer) {
		return 0
	}
	err := (st.Buffer - c.Target).Seconds() / c.Target.Seconds()
	c.integral += err * s.ChunkDuration().Seconds()
	// Anti-windup: the integral term is bounded to one rung's worth of
	// adjustment.
	if c.integral > 30 {
		c.integral = 30
	}
	if c.integral < -30 {
		c.integral = -30
	}
	adj := 1 + c.Kp*err + c.Ki*c.integral
	if adj < 0.1 {
		adj = 0.1
	}
	return l.HighestAtMost(est.Scale(adj))
}

// harmonic returns the harmonic mean of the sample window, 0 when empty.
func (c *Elastic) harmonic() units.BitRate {
	if len(c.samples) == 0 {
		return 0
	}
	var invSum float64
	for _, s := range c.samples {
		if s <= 0 {
			continue
		}
		invSum += 1 / float64(s)
	}
	if invSum == 0 {
		return 0
	}
	return units.BitRate(float64(len(c.samples)) / invSum)
}
