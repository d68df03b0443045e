package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"dive/internal/codec"
	"dive/internal/detect"
	"dive/internal/metrics"
	"dive/internal/obs"
)

// Agent workload: the unit op is one frame through core.Agent.AnalyzeFrame +
// EmitFrame, with uplink feedback through netsim. A pass encodes every
// stream once, each with a fresh agent, so every pass emits the same
// bitstreams; the run is a fixed number of passes.
const (
	agentClipsPerProfile = 2   // streams per profile in one pass
	agentStreamSec       = 2.0 // seconds of video per stream
	agentSourceSec       = 8.0 // streams start anywhere in an 8 s clip
	agentFramesPerSec    = 80  // frames per --seconds: sizes the fixed work
)

type agentWorkload struct {
	seed    int64
	ops     int
	det     *detect.Detector
	streams []*stream
	// ref holds each frame's bitstream checksum from the first timed pass;
	// later passes and the verification pass must reproduce it.
	ref [][]uint32

	renderMs, renderSec float64 // set-up render cost
	lt                  layerTimes
	decode, detect      sample // verification-pass codec decode and detect calls
}

func newAgentWorkload(seed int64, seconds int) *agentWorkload {
	return &agentWorkload{seed: seed, ops: seconds * agentFramesPerSec, det: detect.New(detect.DefaultConfig())}
}

func (w *agentWorkload) setup(rec *obs.Recorder) error {
	rng := rand.New(rand.NewSource(w.seed))
	refs := pickRefs(rng, agentClipsPerProfile*len(profiles), agentSourceSec)
	t0 := time.Now()
	for _, ref := range refs {
		n := int(agentStreamSec*ref.prof.FPS + 0.5)
		first := rng.Intn(ref.frames() - n + 1)
		s := renderStream(ref, first, n, w.det)
		w.streams = append(w.streams, s)
		w.renderSec += s.seconds()
	}
	w.renderMs = float64(time.Since(t0).Milliseconds())
	// Warm-up: one stream through a fresh agent, untraced and untimed.
	_, err := encodeAll(w.streams[0], nil, nil)
	return err
}

func (w *agentWorkload) framesPerPass() int {
	n := 0
	for _, s := range w.streams {
		n += len(s.frames)
	}
	return n
}

func (w *agentWorkload) timed(rec *obs.Recorder) (*result, error) {
	passes := (w.ops + w.framesPerPass() - 1) / w.framesPerPass()
	res := &result{ops: newTally(passes * w.framesPerPass())}
	var lt *layerTimes
	if rec != nil {
		lt = &w.lt
	}
	var gateErr error
	m := startMeter()
	for pass := 0; pass < passes; pass++ {
		for si, s := range w.streams {
			e, err := newEncoder(s, rec)
			if err != nil {
				return nil, err
			}
			for i := range s.frames {
				res.attempted++
				data, _, op, err := e.next(lt)
				if err != nil {
					res.failed++
					gateErr = err
					break
				}
				res.ops.done(op)
				sum := checksum(data)
				switch {
				case len(w.ref) <= si:
					w.ref = append(w.ref, []uint32{sum})
				case len(w.ref[si]) <= i:
					w.ref[si] = append(w.ref[si], sum)
				case w.ref[si][i] != sum && gateErr == nil:
					gateErr = fmt.Errorf("pass %d stream %d frame %d: bitstream differs from the first pass", pass, si, i)
				}
			}
		}
	}
	res.ph = m.stop()
	return res, gateErr
}

// verify re-encodes every stream untraced and checks that each bitstream
// matches the timed passes and decodes to exactly core.Agent.Reconstructed;
// then mAP compares detections on the decoded frames with oracle detections
// on the raw frames.
func (w *agentWorkload) verify() (quality, error) {
	var dets, oracle [][]detect.Detection
	bits, secs := 0, 0.0
	for si, s := range w.streams {
		e, err := newEncoder(s, nil)
		if err != nil {
			return quality{}, err
		}
		dec, err := codec.NewDecoder(e.agent.Config().Codec)
		if err != nil {
			return quality{}, err
		}
		for i, frame := range s.frames {
			data, b, _, err := e.next(nil)
			if err != nil {
				return quality{}, err
			}
			if si < len(w.ref) && i < len(w.ref[si]) && checksum(data) != w.ref[si][i] {
				return quality{}, fmt.Errorf("stream %d frame %d: verification bitstream differs from the timed passes", si, i)
			}
			t0 := time.Now()
			df, err := dec.Decode(data)
			w.decode.add(time.Since(t0))
			if err != nil {
				return quality{}, fmt.Errorf("stream %d frame %d: decode: %w", si, i, err)
			}
			if !bytes.Equal(df.Image.Pix, e.agent.Reconstructed().Pix) {
				return quality{}, fmt.Errorf("stream %d frame %d: decoder output differs from the agent reconstruction", si, i)
			}
			t0 = time.Now()
			d := w.det.Detect(df.Image, frame, s.gt[i], s.ref.frameSeed(s.first+i))
			w.detect.add(time.Since(t0))
			dets = append(dets, d)
			oracle = append(oracle, s.oracle[i])
			bits += b
		}
		secs += s.seconds()
	}
	return quality{
		mAP:         metrics.MAP(dets, oracle, metrics.DefaultIoU),
		bitrateMbps: float64(bits) / secs / 1e6,
	}, nil
}

func (w *agentWorkload) layers(rec *obs.Recorder, m map[string]float64) {
	agentLayers(rec, &w.lt, m)
	m["edge.decode_ms_p50"] = w.decode.q(0.5)
	m["edge.detect_ms_p50"] = w.detect.q(0.5)
	m["handoff.render_ms_per_clip_s"] = w.renderMs / w.renderSec
}

func (w *agentWorkload) close() {}

// agentLayers fills the core, codec-encode and netsim metrics from the
// benchmark's own call timings and the recorder's stage histograms and
// decision journal.
func agentLayers(rec *obs.Recorder, lt *layerTimes, m map[string]float64) {
	m["agent.analyze_ms_p50"] = lt.analyze.q(0.5)
	m["agent.analyze_ms_p90"] = lt.analyze.q(0.9)
	m["agent.emit_ms_p50"] = lt.emit.q(0.5)
	m["agent.link_ms_p50"] = lt.link.q(0.5)
	for name, hist := range map[string]string{
		"agent.motion_ms_p50":        obs.StageMotion,
		"agent.rotation_ms_p50":      obs.StageRotation,
		"agent.foreground_ms_p50":    obs.StageForeground,
		"agent.encode_ms_p50":        obs.StageEncode,
		"agent.codec_motion_ms_p50":  obs.StageCodecMotion,
		"agent.codec_dct_ms_p50":     obs.StageCodecDCT,
		"agent.codec_entropy_ms_p50": obs.StageCodecEntropy,
	} {
		m[name] = histMs(rec, hist, 0.5)
	}
	trials, frames := 0, 0
	for _, j := range rec.Journal().Snapshot() {
		trials += len(j.RCTrials)
		frames++
	}
	if frames > 0 && trials > 0 {
		m["agent.rc_trials_per_frame"] = float64(trials) / float64(frames)
		m["agent.rc_useful_ratio"] = float64(frames) / float64(trials)
	}
}

// histMs reads a quantile of a recorder stage histogram in milliseconds.
func histMs(rec *obs.Recorder, name string, q float64) float64 {
	return rec.Histogram(name).Quantile(q) * 1000
}
