package main

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"time"

	"dive/internal/core"
	"dive/internal/detect"
	"dive/internal/imgx"
	"dive/internal/netsim"
	"dive/internal/obs"
	"dive/internal/world"
)

// profiles are the three dataset stand-ins: urban stop-and-go (nuScenes),
// suburban (RobotCar) and highway (KITTI) motion at three frame sizes.
var profiles = []world.Profile{world.NuScenesLike(), world.RobotCarLike(), world.KITTILike()}

// clipRef names one synthetic clip exactly the way the edge handshake does:
// profile, generation seed and duration.
type clipRef struct {
	prof world.Profile // ClipDuration is the clip's duration
	seed int64
}

// frames returns the clip's length in frames (as world.GenerateClip counts).
func (c clipRef) frames() int { return int(c.prof.ClipDuration*c.prof.FPS + 0.5) }

// frameSeed is the per-frame detector seed the edge server uses, so oracle
// and served detections draw the same random numbers and differ only by
// what compression destroyed.
func (c clipRef) frameSeed(i int) int64 { return c.seed ^ int64(i*7919) }

// pickRefs draws n clip identities of the given duration from rng, cycling
// through the three profiles.
func pickRefs(rng *rand.Rand, n int, durationS float64) []clipRef {
	refs := make([]clipRef, n)
	for i := range refs {
		p := profiles[i%len(profiles)]
		p.ClipDuration = durationS
		refs[i] = clipRef{prof: p, seed: 1 + rng.Int63n(1<<40)}
	}
	return refs
}

// stream is a run of consecutive rendered frames of one clip, with the
// oracle detections on the raw frames (the paper's accuracy reference).
type stream struct {
	ref    clipRef
	first  int
	focal  float64
	frames []*imgx.Plane
	gt     [][]world.GTBox
	oracle [][]detect.Detection
}

// renderStream renders frames [first, first+n) of ref through
// world.ClipSource, which is byte-identical to the frames the edge server
// renders for the same handshake.
func renderStream(ref clipRef, first, n int, det *detect.Detector) *stream {
	src := world.NewClipSource(ref.prof, ref.seed)
	s := &stream{ref: ref, first: first, focal: src.Focal()}
	for i := first; i < first+n; i++ {
		f, gt, _ := src.Frame(i)
		s.frames = append(s.frames, f)
		s.gt = append(s.gt, gt)
		s.oracle = append(s.oracle, det.Detect(f, f, gt, ref.frameSeed(i)))
	}
	return s
}

// seconds is the stream's duration of video.
func (s *stream) seconds() float64 { return float64(len(s.frames)) / s.ref.prof.FPS }

// uplinkTrace is the seeded uplink every encoder sees: 2 Mbit/s with a 2 s
// fade of +-40% and seeded +-10% jitter, so it spans about 1-3 Mbit/s within
// every stream and rate control bisects on every frame.
func uplinkTrace(seed int64) netsim.Trace {
	return &netsim.FadingTrace{Base: netsim.Mbps(2), Swing: 0.4, Period: 2, Jitter: 0.1, Seed: seed}
}

// encoder drives one stream through a fresh core.Agent with uplink feedback
// through a netsim.Link, timing each layer call.
type encoder struct {
	s     *stream
	agent *core.Agent
	link  *netsim.Link
	i     int
}

func newEncoder(s *stream, rec *obs.Recorder) (*encoder, error) {
	p := s.ref.prof
	cfg := core.DefaultAgentConfig(p.W, p.H, p.FPS, s.focal)
	cfg.Seed = s.ref.seed
	cfg.Obs = rec
	agent, err := core.NewAgent(cfg)
	if err != nil {
		return nil, err
	}
	link := netsim.NewLink(uplinkTrace(s.ref.seed), 0.02)
	link.Obs = rec
	return &encoder{s: s, agent: agent, link: link}, nil
}

// layerTimes collects per-call durations of the agent-side layers.
type layerTimes struct {
	analyze, emit, link sample
}

// next encodes the stream's next frame: AnalyzeFrame + EmitFrame is the
// unit op (its duration is returned), then the bits go through
// Link.Send -> OnTransmitComplete.
func (e *encoder) next(lt *layerTimes) (data []byte, bits int, op time.Duration, err error) {
	i := e.i
	e.i++
	now := float64(e.s.first+i) / e.s.ref.prof.FPS
	t0 := time.Now()
	p, err := e.agent.AnalyzeFrame(e.s.frames[i], now)
	if err != nil {
		return nil, 0, 0, err
	}
	t1 := time.Now()
	fr, err := e.agent.EmitFrame(p)
	if err != nil {
		return nil, 0, 0, err
	}
	t2 := time.Now()
	bits = fr.Encoded.NumBits
	start, serialized, _ := e.link.Send(now, bits)
	e.agent.OnTransmitComplete(start, serialized, bits)
	t3 := time.Now()
	if lt != nil {
		lt.analyze.add(t1.Sub(t0))
		lt.emit.add(t2.Sub(t1))
		lt.link.add(t3.Sub(t2))
	}
	return fr.Encoded.Data, bits, t2.Sub(t0), nil
}

// bitstream is one stream's encoded frames.
type bitstream struct {
	data [][]byte
	bits int
}

// encodeAll pre-encodes a whole stream (set-up work for the edge workloads).
func encodeAll(s *stream, rec *obs.Recorder, lt *layerTimes) (*bitstream, error) {
	e, err := newEncoder(s, rec)
	if err != nil {
		return nil, err
	}
	bs := &bitstream{}
	for range s.frames {
		data, bits, _, err := e.next(lt)
		if err != nil {
			return nil, fmt.Errorf("pre-encode %s seed %d: %w", s.ref.prof.Name, s.ref.seed, err)
		}
		bs.data = append(bs.data, data)
		bs.bits += bits
	}
	return bs, nil
}

// checksum fingerprints a bitstream for the cross-pass determinism gate.
func checksum(b []byte) uint32 { return crc32.ChecksumIEEE(b) }
