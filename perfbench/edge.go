package main

import (
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"sync"
	"time"

	"dive/internal/detect"
	"dive/internal/edge"
	"dive/internal/metrics"
	"dive/internal/obs"
	"dive/internal/world"
)

// server is one in-process edge.Server on a loopback port.
type server struct {
	srv  *edge.Server
	addr string
	done chan error
}

func startServer(rec *obs.Recorder) (*server, error) {
	s := &server{srv: edge.NewServer(), done: make(chan error, 1)}
	s.srv.Obs = rec
	addr, err := s.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.addr = addr.String()
	go func() { s.done <- s.srv.Serve() }()
	return s, nil
}

// stop closes the listener and every session and waits for Serve to return.
func (s *server) stop() {
	s.srv.Kill()
	<-s.done
}

// conn is the benchmark's own client side of one session, spoken through
// the exported edge wire functions.
type conn struct {
	c  net.Conn
	mr *edge.MsgReader
}

const ioTimeout = 30 * time.Second

// dial opens a session and waits for the handshake ack.
func dial(addr string, h edge.Hello) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, ioTimeout)
	if err != nil {
		return nil, err
	}
	s := &conn{c: c, mr: edge.NewMsgReader(c)}
	c.SetDeadline(time.Now().Add(ioTimeout))
	if err := edge.WriteHello(c, h); err != nil {
		c.Close()
		return nil, err
	}
	ack, err := s.read()
	if err == nil && (ack.Err != "" || ack.Index != -1) {
		err = fmt.Errorf("handshake rejected: index %d err %q", ack.Index, ack.Err)
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	return s, nil
}

func (s *conn) read() (edge.ResultMsg, error) {
	typ, payload, err := s.mr.Next()
	if err != nil {
		return edge.ResultMsg{}, err
	}
	if typ != edge.MsgResult {
		return edge.ResultMsg{}, fmt.Errorf("unexpected message type %d", typ)
	}
	return edge.DecodeResultMsg(payload)
}

// frame sends one frame and waits for its result. A NACK, a result error
// or a mismatched index is an error: every frame here is sent on a clean
// link in decodable order.
func (s *conn) frame(idx int, data []byte) (edge.ResultMsg, error) {
	s.c.SetDeadline(time.Now().Add(ioTimeout))
	if err := edge.WriteFrame(s.c, &edge.FrameMsg{Index: idx, Bitstream: data, SentNanos: time.Now().UnixNano()}); err != nil {
		return edge.ResultMsg{}, err
	}
	res, err := s.read()
	switch {
	case err != nil:
		return res, err
	case res.Index != idx:
		return res, fmt.Errorf("result for frame %d, want %d", res.Index, idx)
	case res.Err != "" || res.NeedKeyframe:
		return res, fmt.Errorf("frame %d refused: %q (keyframe request %v)", idx, res.Err, res.NeedKeyframe)
	}
	return res, nil
}

func (s *conn) close() { s.c.Close() }

// served collects each clip frame's served detections: the first result is
// kept, and every later result for the same frame must equal it.
type served struct {
	mu   sync.Mutex
	dets [][][]detect.Detection // [clip][frame]
}

func newServed(lens []int) *served {
	s := &served{dets: make([][][]detect.Detection, len(lens))}
	for i, n := range lens {
		s.dets[i] = make([][]detect.Detection, n)
	}
	return s
}

func (s *served) note(clip, frame int, ws []edge.WireDetection) error {
	d := edge.FromWire(ws)
	s.mu.Lock()
	defer s.mu.Unlock()
	switch prev := s.dets[clip][frame]; {
	case prev == nil:
		s.dets[clip][frame] = d
	case !reflect.DeepEqual(prev, d):
		return fmt.Errorf("clip %d frame %d: detections differ from an earlier result", clip, frame)
	}
	return nil
}

// mAP scores the served detections against the oracle; every frame must
// have been served at least once.
func (s *served) mAP(streams []*stream) (float64, error) {
	var dets, oracle [][]detect.Detection
	for ci, st := range streams {
		for i, d := range s.dets[ci] {
			if d == nil {
				return 0, fmt.Errorf("clip %d frame %d never got a result", ci, i)
			}
			dets = append(dets, d)
			oracle = append(oracle, st.oracle[i])
		}
	}
	return metrics.MAP(dets, oracle, metrics.DefaultIoU), nil
}

// edgeLayers holds the per-layer samples of an edge workload's traced phase.
type edgeLayers struct {
	mu                                   sync.Mutex
	serverMs, wireMs, helloAck, firstRes sample
}

func (l *edgeLayers) result(rtt time.Duration, res edge.ResultMsg) {
	l.mu.Lock()
	l.serverMs = append(l.serverMs, res.ServerMs)
	l.wireMs = append(l.wireMs, rtt.Seconds()*1000-res.ServerMs)
	l.mu.Unlock()
}

func (l *edgeLayers) handshake(ack, first time.Duration) {
	l.mu.Lock()
	l.helloAck.add(ack)
	l.firstRes.add(first)
	l.mu.Unlock()
}

func (l *edgeLayers) fill(rec *obs.Recorder, m map[string]float64) {
	m["edge.server_ms_p50"] = l.serverMs.q(0.5)
	m["edge.server_ms_p90"] = l.serverMs.q(0.9)
	m["edge.wire_ms_p50"] = l.wireMs.q(0.5)
	m["edge.decode_ms_p50"] = histMs(rec, obs.StageEdgeDecode, 0.5)
	m["edge.detect_ms_p50"] = histMs(rec, obs.StageEdgeDetect, 0.5)
	m["handoff.hello_ack_ms_p50"] = l.helloAck.q(0.5)
	m["handoff.hello_ack_ms_p90"] = l.helloAck.q(0.9)
	m["handoff.first_result_ms_p50"] = l.firstRes.q(0.5)
}

func hello(ref clipRef, resume bool, first int) edge.Hello {
	return edge.Hello{Profile: ref.prof.Name, Seed: ref.seed, Duration: ref.prof.ClipDuration, Resume: resume, FirstFrame: first}
}

// Edge-steady workload: nproc closed-loop sessions against one in-process
// server; the unit op is one frame, timed from send to result. Each session
// streams whole clips of its share of the clip identities in turn, one
// connection per clip. Six identities (fewer than the server's 8-entry clip
// cache) are warmed in set-up, so the reference render is never timed.
// Every clip has the same number of frames, so each profile's frame size
// weighs a third of the latency distribution: p50 lies inside the middle
// profile's mode and p90 inside the largest's, never on a boundary between
// two modes.
const (
	steadyClips        = 6
	steadyClipFrames   = 24
	steadyFramesPerSec = 500 // frames per --seconds: sizes the fixed work
	steadyWarmFrames   = 16  // per session, before timing
)

type steadyWorkload struct {
	seed     int64
	ops      int
	sessions int
	det      *detect.Detector
	streams  []*stream
	bs       []*bitstream
	srv      *server
	served   *served

	renderMs, renderSec float64
	lt                  layerTimes // set-up pre-encode
	el                  edgeLayers // traced phase
}

func newSteadyWorkload(seed int64, seconds int) *steadyWorkload {
	return &steadyWorkload{
		seed: seed, ops: seconds * steadyFramesPerSec,
		sessions: runtime.GOMAXPROCS(0), det: detect.New(detect.DefaultConfig()),
	}
}

func (w *steadyWorkload) setup(rec *obs.Recorder) error {
	rng := rand.New(rand.NewSource(w.seed))
	var lens []int
	t0 := time.Now()
	for _, ref := range pickRefs(rng, steadyClips, 0) {
		ref.prof.ClipDuration = steadyClipFrames / ref.prof.FPS
		s := renderStream(ref, 0, ref.frames(), w.det)
		w.streams = append(w.streams, s)
		w.renderSec += s.seconds()
		lens = append(lens, len(s.frames))
	}
	w.renderMs = float64(time.Since(t0).Milliseconds())
	for _, s := range w.streams {
		b, err := encodeAll(s, rec, &w.lt)
		if err != nil {
			return err
		}
		w.bs = append(w.bs, b)
	}
	w.served = newServed(lens)
	srv, err := w.warmServer(nil)
	w.srv = srv
	return err
}

// warmServer starts a server, has it render and cache every clip, and runs
// a few frames on each session.
func (w *steadyWorkload) warmServer(rec *obs.Recorder) (*server, error) {
	srv, err := startServer(rec)
	if err != nil {
		return nil, err
	}
	for _, s := range w.streams {
		c, err := dial(srv.addr, hello(s.ref, false, 0))
		if err != nil {
			srv.stop()
			return nil, err
		}
		c.close()
	}
	if _, err := w.run(srv, steadyWarmFrames*w.sessions, nil); err != nil {
		srv.stop()
		return nil, err
	}
	return srv, nil
}

func (w *steadyWorkload) timed(rec *obs.Recorder) (*result, error) {
	srv := w.srv
	var el *edgeLayers
	if rec != nil {
		var err error
		if srv, err = w.warmServer(rec); err != nil {
			return nil, err
		}
		defer srv.stop()
		el = &w.el
	}
	// Every session streams each of its clips at least once, so every
	// frame is served and scored.
	ops := w.ops
	if all := w.framesTotal(); ops < all {
		ops = all
	}
	m := startMeter()
	res, err := w.run(srv, ops, el)
	res.ph = m.stop()
	return res, err
}

func (w *steadyWorkload) framesTotal() int {
	n := 0
	for _, s := range w.streams {
		n += len(s.frames)
	}
	return n
}

// run drives ops frames split evenly over the sessions. Session k streams
// clips k, k+sessions, ... in turn.
func (w *steadyWorkload) run(srv *server, ops int, el *edgeLayers) (*result, error) {
	per := (ops + w.sessions - 1) / w.sessions
	t := newTally(per * w.sessions)
	parts := make([]result, w.sessions)
	errs := make([]error, w.sessions)
	var wg sync.WaitGroup
	for k := 0; k < w.sessions; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			parts[k].ops = t
			errs[k] = w.session(srv.addr, k, per, el, &parts[k])
		}(k)
	}
	wg.Wait()
	res := &result{ops: t}
	var first error
	for k := range parts {
		res.attempted += parts[k].attempted
		res.failed += parts[k].failed
		if first == nil {
			first = errs[k]
		}
	}
	return res, first
}

func (w *steadyWorkload) session(addr string, k, ops int, el *edgeLayers, res *result) error {
	var clips []int
	for ci := k % len(w.streams); ci < len(w.streams); ci += w.sessions {
		clips = append(clips, ci)
	}
	for b := 0; res.attempted < ops; b++ {
		ci := clips[b%len(clips)]
		s, bs := w.streams[ci], w.bs[ci]
		t0 := time.Now()
		c, err := dial(addr, hello(s.ref, false, 0))
		if err != nil {
			res.attempted++
			res.failed++
			return err
		}
		ack := time.Since(t0)
		for i := 0; i < len(bs.data) && res.attempted < ops; i++ {
			res.attempted++
			t1 := time.Now()
			r, err := c.frame(i, bs.data[i])
			rtt := time.Since(t1)
			if err != nil {
				res.failed++
				c.close()
				return err
			}
			res.ops.done(rtt)
			if el != nil {
				el.result(rtt, r)
				if i == 0 {
					el.handshake(ack, rtt)
				}
			}
			if err := w.served.note(ci, i, r.Detections); err != nil {
				c.close()
				return err
			}
		}
		c.close()
	}
	return nil
}

func (w *steadyWorkload) verify() (quality, error) {
	mAP, err := w.served.mAP(w.streams)
	if err != nil {
		return quality{}, err
	}
	return quality{mAP: mAP, bitrateMbps: bitrate(w.streams, w.bs)}, nil
}

func (w *steadyWorkload) layers(rec *obs.Recorder, m map[string]float64) {
	agentLayers(rec, &w.lt, m)
	w.el.fill(rec, m)
	m["handoff.render_ms_per_clip_s"] = w.renderMs / w.renderSec
}

func (w *steadyWorkload) close() {
	if w.srv != nil {
		w.srv.stop()
	}
}

func bitrate(streams []*stream, bs []*bitstream) float64 {
	bits, secs := 0, 0.0
	for i, s := range streams {
		bits += bs[i].bits
		secs += s.seconds()
	}
	return float64(bits) / secs / 1e6
}

// Edge-handoff workload: the unit op is one session resume on a fresh
// connection — Hello{Resume, FirstFrame: k} timed until the first result —
// followed by a few more frames. Every handoff names a clip the server has
// not cached (the rotation is 4.5x the 8-entry clip cache), so each one pays
// the whole-clip reference render, decoder set-up and first intra decode.
const (
	handoffClips       = 36
	handoffClipSec     = 2.0
	handoffFrames      = 4 // frames per handoff: the resume intra frame + 3
	handoffOpsPerSec   = 6 // handoffs per --seconds: sizes the fixed work
	handoffWarmOps     = 2
	handoffRenderClips = 6 // clips world.GenerateClip is timed on (traced runs)
)

type handoffWorkload struct {
	seed    int64
	ops     int
	det     *detect.Detector
	streams []*stream
	bs      []*bitstream
	srv     *server
	served  *served
	next    int // rotation position

	lt       layerTimes
	el       edgeLayers
	renderMs sample // per clip second, world.GenerateClip
}

func newHandoffWorkload(seed int64, seconds int) *handoffWorkload {
	return &handoffWorkload{seed: seed, ops: seconds * handoffOpsPerSec, det: detect.New(detect.DefaultConfig())}
}

func (w *handoffWorkload) setup(rec *obs.Recorder) error {
	rng := rand.New(rand.NewSource(w.seed))
	var lens []int
	for _, ref := range pickRefs(rng, handoffClips, handoffClipSec) {
		first := rng.Intn(ref.frames() - handoffFrames + 1)
		s := renderStream(ref, first, handoffFrames, w.det)
		b, err := encodeAll(s, rec, &w.lt)
		if err != nil {
			return err
		}
		w.streams = append(w.streams, s)
		w.bs = append(w.bs, b)
		lens = append(lens, handoffFrames)
	}
	w.served = newServed(lens)
	srv, err := startServer(nil)
	if err != nil {
		return err
	}
	w.srv = srv
	_, err = w.run(srv, handoffWarmOps, nil)
	return err
}

func (w *handoffWorkload) timed(rec *obs.Recorder) (*result, error) {
	srv := w.srv
	var el *edgeLayers
	if rec != nil {
		var err error
		if srv, err = startServer(rec); err != nil {
			return nil, err
		}
		defer srv.stop()
		el = &w.el
	}
	ops := w.ops
	if ops < len(w.streams) {
		ops = len(w.streams)
	}
	m := startMeter()
	res, err := w.run(srv, ops, el)
	res.ph = m.stop()
	if err == nil && rec != nil {
		for _, s := range w.streams[:handoffRenderClips] {
			t0 := time.Now()
			world.GenerateClip(s.ref.prof, s.ref.seed)
			w.renderMs = append(w.renderMs, time.Since(t0).Seconds()*1000/s.ref.prof.ClipDuration)
		}
	}
	return res, err
}

func (w *handoffWorkload) run(srv *server, ops int, el *edgeLayers) (*result, error) {
	res := &result{ops: newTally(ops)}
	for j := 0; j < ops; j++ {
		ci := w.next % len(w.streams)
		w.next++
		res.attempted++
		rtt, err := w.handoff(srv.addr, ci, el)
		if err != nil {
			res.failed++
			return res, err
		}
		res.ops.done(rtt)
	}
	return res, nil
}

// handoff resumes clip ci at its first pre-encoded frame and returns the
// time from Hello to the first result.
func (w *handoffWorkload) handoff(addr string, ci int, el *edgeLayers) (time.Duration, error) {
	s, bs := w.streams[ci], w.bs[ci]
	t0 := time.Now()
	c, err := dial(addr, hello(s.ref, true, s.first))
	if err != nil {
		return 0, err
	}
	defer c.close()
	t1 := time.Now()
	var op time.Duration
	for i, data := range bs.data {
		t2 := time.Now()
		r, err := c.frame(s.first+i, data)
		if err != nil {
			return 0, err
		}
		if i == 0 {
			op = time.Since(t0)
			if el != nil {
				el.handshake(t1.Sub(t0), time.Since(t1))
			}
		}
		if el != nil {
			el.result(time.Since(t2), r)
		}
		if err := w.served.note(ci, i, r.Detections); err != nil {
			return 0, err
		}
	}
	return op, nil
}

func (w *handoffWorkload) verify() (quality, error) {
	mAP, err := w.served.mAP(w.streams)
	if err != nil {
		return quality{}, err
	}
	return quality{mAP: mAP, bitrateMbps: bitrate(w.streams, w.bs)}, nil
}

func (w *handoffWorkload) layers(rec *obs.Recorder, m map[string]float64) {
	agentLayers(rec, &w.lt, m)
	w.el.fill(rec, m)
	m["handoff.render_ms_per_clip_s"] = median(w.renderMs)
}

func (w *handoffWorkload) close() {
	if w.srv != nil {
		w.srv.stop()
	}
}
