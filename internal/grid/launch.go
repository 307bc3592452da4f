package grid

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"time"

	"snnsec/internal/faultinject"
)

// InProcess runs each shard's worker as a ServeWorker goroutine in this
// process, connected to the coordinator by a pair of io.Pipes: the same
// protocol, retries, checkpoints and progress as ExecLauncher without the
// subprocess. core.RunGrid and snnsec grid without -shards use it.
//
// Fault rules are process-wide here: every in-process shard shares one
// injector, so shard-scoped rules (point@s1:…) need ExecLauncher, and an
// exit action ends the whole process. A goroutine cannot be killed: when
// the coordinator withdraws a stalled worker's point it closes the pipes,
// and the wedged worker computes on until its next send (a heartbeat or
// its result) fails, then exits; its point has already been reassigned.
func InProcess() Launcher {
	return func(int) (Transport, error) {
		toWorkerR, toWorkerW := io.Pipe()
		fromWorkerR, fromWorkerW := io.Pipe()
		go func() {
			// A fatal error has already reached the coordinator over the
			// pipe; any other ends the conversation the coordinator closed.
			_ = ServeWorker(toWorkerR, fromWorkerW)
			// Unblock the coordinator on either direction once the
			// worker is gone.
			toWorkerR.Close()
			fromWorkerW.Close()
		}()
		return &pipeTransport{r: fromWorkerR, w: toWorkerW}, nil
	}
}

// pipeTransport is the coordinator's end of an in-process worker.
type pipeTransport struct {
	r *io.PipeReader
	w *io.PipeWriter
}

func (p *pipeTransport) Read(b []byte) (int, error)  { return p.r.Read(b) }
func (p *pipeTransport) Write(b []byte) (int, error) { return p.w.Write(b) }

// Close ends both directions: the worker's next read sees EOF and its
// next write fails. Closing a pipe twice is harmless, so Close is
// idempotent.
func (p *pipeTransport) Close() error {
	p.w.Close()
	return p.r.Close()
}

// ExecLauncher spawns one local worker subprocess per shard, speaking
// the protocol over its stdin/stdout; stderr passes through to the
// coordinator's stderr so worker logs stay visible. The CLI uses it as
// ExecLauncher(os.Executable(), "grid-worker"); pointing name at a
// wrapper script (ssh, docker run, …) is all a remote launch needs.
func ExecLauncher(name string, args ...string) Launcher {
	return func(shard int) (Transport, error) {
		cmd := exec.Command(name, args...)
		cmd.Stderr = os.Stderr
		// Tag the subprocess with its shard id so shard-scoped fault
		// rules (point@s2:…) land on exactly one worker. The fault spec
		// and seed themselves travel via the environment too (the CLI
		// exports them), so a chaos schedule follows the whole tree.
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d", faultinject.EnvShard, shard))
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return nil, err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("grid: starting worker %q: %w", name, err)
		}
		return &execTransport{cmd: cmd, in: stdin, out: stdout}, nil
	}
}

// execTransport is the coordinator's handle on a worker subprocess.
type execTransport struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  io.ReadCloser
	once sync.Once
	werr error
}

func (t *execTransport) Read(p []byte) (int, error)  { return t.out.Read(p) }
func (t *execTransport) Write(p []byte) (int, error) { return t.in.Write(p) }

// Kill forcibly terminates the worker process. The coordinator uses it
// when a worker is known-wedged (its point already withdrawn after a
// stall) so the subsequent Close reaps immediately instead of waiting
// out the grace period.
func (t *execTransport) Kill() {
	if t.cmd.Process != nil {
		_ = t.cmd.Process.Kill()
	}
}

// Close shuts the worker down: closing stdin makes a healthy worker exit
// its read loop; a wedged one is killed after a grace period so Close
// (and the coordinator) cannot hang on it. Close is idempotent — the
// shard goroutine and the cancellation path may both call it.
func (t *execTransport) Close() error {
	t.once.Do(func() {
		_ = t.in.Close()
		killer := time.AfterFunc(10*time.Second, func() {
			if t.cmd.Process != nil {
				_ = t.cmd.Process.Kill()
			}
		})
		defer killer.Stop()
		t.werr = t.cmd.Wait()
	})
	return t.werr
}
