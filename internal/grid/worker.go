package grid

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"snnsec/internal/compute"
	"snnsec/internal/explore"
	"snnsec/internal/faultinject"
	"snnsec/internal/modelio"
)

// Fault points the worker exposes to internal/faultinject. FaultPoint
// fires once per assigned point, before the compute starts — and before
// heartbeats, so an injected delay looks exactly like a wedged process.
const (
	// FaultWorkerPoint supports delay (a hung-but-alive worker), error
	// (a per-point failure reported as point_failed) and exit (a
	// crashed worker process).
	FaultWorkerPoint = "grid.worker.point"
)

// ServeWorker runs the worker side of the protocol over r/w — for the
// snnsec grid-worker subcommand these are stdin and stdout, but any
// byte stream works (InProcess drives workers over in-memory pipes).
// It processes the hello, then serves assigned points one at a time
// until the coordinator sends done or the stream closes. Point-level
// sweep failures travel inside the point (explore sweeps past them); a
// point whose computation errors outright is reported as point_failed
// and the worker stays alive for the rest of its block (the coordinator
// bounds the retries). Only errors that make the whole worker useless —
// an unknown builder, a dataset that fails to load — are reported as
// fatal and returned.
func ServeWorker(r io.Reader, w io.Writer) error {
	c := newConn(struct {
		io.Reader
		io.Writer
	}{r, w})
	hello, err := c.recv()
	if err != nil {
		return fmt.Errorf("grid: worker reading hello: %w", err)
	}
	if hello.Type != msgHello {
		return c.fatal(fmt.Errorf("grid: worker expected hello, got %q", hello.Type))
	}
	job, err := Spec{Builder: hello.Builder, Config: hello.Spec}.Build()
	if err != nil {
		return c.fatal(err)
	}
	trainDS, testDS, err := job.Data()
	if err != nil {
		return c.fatal(err)
	}
	cfg := job.Config
	// The coordinator owns point-level parallelism; this worker runs one
	// point at a time on its assigned slice of the CPU budget.
	cfg.Workers = 1
	cfg.KernelWorkers = hello.KernelWorkers
	if err := (&cfg).Validate(); err != nil {
		return c.fatal(err)
	}
	// Probabilistic fault rules derive from the run seed unless the
	// policy was seeded explicitly, so a chaos schedule replays from the
	// job spec alone.
	faultinject.Reseed(cfg.Seed)
	be := compute.New(cfg.KernelWorkers)
	for {
		if err := c.send(message{Type: msgReady}); err != nil {
			return fmt.Errorf("grid: worker sending ready: %w", err)
		}
		m, err := c.recv()
		if err != nil {
			return fmt.Errorf("grid: worker reading assignment: %w", err)
		}
		switch m.Type {
		case msgDone:
			return nil
		case msgPoint:
			if err := faultinject.Apply(FaultWorkerPoint); err != nil {
				if serr := c.send(message{Type: msgPointFailed, Index: m.Index, Err: err.Error()}); serr != nil {
					return fmt.Errorf("grid: worker reporting failed point %d: %w", m.Index, serr)
				}
				continue
			}
			stopHB := startHeartbeat(c, hello.HeartbeatMS)
			tp, pt, err := explore.RunPointAt(cfg, be, m.Index, trainDS, testDS)
			stopHB()
			if err != nil {
				if serr := c.send(message{Type: msgPointFailed, Index: m.Index, Err: err.Error()}); serr != nil {
					return fmt.Errorf("grid: worker reporting failed point %d: %w", m.Index, serr)
				}
				continue
			}
			wire := pt.Wire()
			reply := message{Type: msgPointDone, Index: m.Index, Point: &wire}
			if hello.WantModel && tp.Err == nil && tp.Net != nil {
				snap, err := modelio.Bytes(map[string]string{
					"model": "snn",
					"vth":   strconv.FormatFloat(tp.Vth, 'g', -1, 64),
					"T":     strconv.Itoa(tp.T),
					"index": strconv.Itoa(m.Index),
				}, tp.Net.Params())
				if err != nil {
					return c.fatal(fmt.Errorf("grid: snapshotting point %d: %w", m.Index, err))
				}
				reply.Model = snap
			}
			if err := c.send(reply); err != nil {
				return fmt.Errorf("grid: worker sending point %d: %w", m.Index, err)
			}
		default:
			return c.fatal(fmt.Errorf("grid: worker got unexpected %q", m.Type))
		}
	}
}

// fatal reports err to the coordinator (best effort) and returns it.
func (c *conn) fatal(err error) error {
	_ = c.send(message{Type: msgFatal, Err: err.Error()})
	return err
}

// startHeartbeat streams heartbeat messages on c every ms milliseconds
// until the returned stop function is called (it waits for the sender to
// finish, so no heartbeat can trail the point_done that follows). Send
// failures end the stream early — the coordinator side is gone and the
// main loop will notice on its next send.
func startHeartbeat(c *conn, ms int) (stop func()) {
	if ms <= 0 {
		return func() {}
	}
	stopc := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(time.Duration(ms) * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if err := c.send(message{Type: msgHeartbeat}); err != nil {
					return
				}
			case <-stopc:
				return
			}
		}
	}()
	return func() {
		close(stopc)
		<-done
	}
}
