// Command soaksmoke is the end-to-end soak behind `make soaksmoke`. It
// builds dmafaultd, campaign and fabrictop once, then runs four phases in
// order; a failing phase ends the run with an error that starts with its
// name ("kill phase: ...").
//
//  1. daemon — the supervision soak: boot dmafaultd, hammer the job plane
//     with fault-injected campaigns, cancel some mid-flight, kill -9 the
//     daemon while a campaign is running, restart it against the same
//     journal directory, and require boot recovery to finish the
//     interrupted job, a fresh submission to run, and SIGTERM to drain.
//  2. fleet — a coordinator with -fleetobs over three workers under a mild
//     netchaos plan: /v1/fleet must attribute queue-wait, execute and
//     publish time to every worker, fabrictop -once must list them, and
//     the merged summary must match the single-node reference.
//  3. chaos — the same workers under a byzantine netchaos plan (corrupt
//     and torn bodies, 503 storms, drops, partitions): the summary must
//     still match, with fabric_integrity_rejected_total > 0 and
//     fabric_steals_total > 0 proving both defenses fired.
//  4. kill — kill -9 a worker while it holds shard leases, kill -9 the
//     coordinator once the re-lease is journaled, restart it with -resume,
//     and require the summary to match with fabric_releases_total > 0 and
//     the surviving workers to drain.
//
// The three fabric phases share one stall-scenario set, one single-node
// reference summary (the byte-identity oracle), and one pool of three
// workers that is spawned and preflighted once. kill runs last because it
// kills one of those workers. All daemon traffic goes through the typed /v1
// client (internal/faultdclient).
//
// Usage:
//
//	soaksmoke            # all four phases (~20-40s on two cores)
//	soaksmoke -seed 7    # re-roll which daemon-phase jobs get cancelled
//	soaksmoke -keep      # keep the scratch dir: child logs, summaries, journals
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"time"

	"dmafault/internal/campaign"
	"dmafault/internal/cliutil"
	"dmafault/internal/faultd/api"
	"dmafault/internal/faultdclient"
)

// Daemons and coordinators announce their listener as a structured slog
// record (msg=...listening addr=HOST:PORT ...); addrRE pulls the resolved
// address out of that line.
var addrRE = regexp.MustCompile(`\baddr=(\S+)`)

func main() {
	keep := flag.Bool("keep", false, "keep the scratch directory for inspection")
	cf := cliutil.New("soaksmoke").WithSeed().WithLog()
	cf.Parse()
	log := cf.Logger(nil)
	if err := run(log, *cf.Seed, *keep); err != nil {
		log.Error("soak failed", "err", err)
		os.Exit(1)
	}
	fmt.Println("soaksmoke: OK")
}

// soak is one run's shared state: the scratch directory, the binaries
// built once, and the fabric phases' scenario set, reference and workers.
type soak struct {
	log *slog.Logger
	dir string
	seq int // numbers the child-process logs

	setPath string
	single  []byte // single-node reference summary
	workers []*proc
}

func run(log *slog.Logger, seed int64, keep bool) error {
	dir, err := os.MkdirTemp("", "soaksmoke-")
	if err != nil {
		return err
	}
	if keep {
		log.Info("keeping scratch dir", "dir", dir)
	} else {
		defer os.RemoveAll(dir)
	}
	s := &soak{log: log, dir: dir}
	defer func() {
		for _, w := range s.workers {
			w.kill()
		}
	}()
	if out, err := exec.Command("go", "build", "-o", dir+"/",
		"./cmd/dmafaultd", "./cmd/campaign", "./cmd/fabrictop").CombinedOutput(); err != nil {
		return fmt.Errorf("build: %v\n%s", err, out)
	}
	if err := s.startPool(context.Background()); err != nil {
		return fmt.Errorf("fabric set-up: %w", err)
	}
	phases := []struct {
		name string
		run  func() error
	}{
		{"daemon", func() error { return s.daemonPhase(seed) }},
		{"fleet", s.fleetPhase},
		{"chaos", s.chaosPhase},
		{"kill", s.killPhase}, // last: it kills a pool worker
	}
	for _, p := range phases {
		start := time.Now()
		if err := p.run(); err != nil {
			return fmt.Errorf("%s phase: %w", p.name, err)
		}
		log.Info("phase passed", "phase", p.name, "elapsed", time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// bin is the path of one of the binaries run builds into the scratch dir.
func (s *soak) bin(name string) string { return filepath.Join(s.dir, name) }

// daemonPhase is the supervision soak: load, chaos-cancel, kill -9,
// restart on the same journal directory, recover, drain.
func (s *soak) daemonPhase(seed int64) error {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	journalDir := filepath.Join(s.dir, "journals")
	if err := os.Mkdir(journalDir, 0o755); err != nil {
		return err
	}
	startDaemon := func() (*proc, error) {
		d, err := s.start("daemon", s.bin("dmafaultd"),
			"-addr", "127.0.0.1:0",
			"-journal-dir", journalDir,
			"-max-concurrent-campaigns", "2",
			"-queue-depth", "32",
			"-job-stall-timeout", "1m",
			"-quarantine-threshold", "3",
		)
		if err != nil {
			return nil, err
		}
		if err := preflightWorkers(ctx, []string{d.url}, 10*time.Second); err != nil {
			d.kill()
			return nil, err
		}
		return d, nil
	}

	// Boot, load the job plane, chaos-cancel, then kill -9.
	d, err := startDaemon()
	if err != nil {
		return err
	}
	defer d.kill()

	// Fast jobs with the fault plan armed: injected DMA corruption and
	// allocator pressure on every scenario, plus one deliberate scenario
	// panic, keep the hardened paths hot while the scheduler multiplexes
	// the jobs over 2 slots.
	var ids []int
	for i := 0; i < 6; i++ {
		fault := "dma-corrupt:0.01,alloc-fail:0.002"
		if i == 2 {
			fault = "scenario-panic@1"
		}
		acc, err := d.c.Submit(ctx, api.SubmitRequest{
			Name: fmt.Sprintf("soak-%d", i), Workers: 2,
			Scenarios: faultScenarios(4, 100+4*i, fault),
		})
		if err != nil {
			return err
		}
		ids = append(ids, acc.ID)
	}
	// The victim: serial 250ms stalls, long enough to be mid-flight when
	// the SIGKILL lands and to span the restart.
	acc, err := d.c.Submit(ctx, api.SubmitRequest{
		Name: "victim", Workers: 1, Scenarios: stallScenarios(10),
	})
	if err != nil {
		return err
	}
	victim := acc.ID

	// Random mid-flight cancels: each fast job has a 1-in-3 chance. A 409
	// means the job beat the cancel to the finish line — fine mid-chaos.
	cancelled := map[int]bool{}
	for _, id := range ids {
		if rng.Intn(3) == 0 {
			if _, err := d.c.Cancel(ctx, id); err != nil && !faultdclient.IsConflict(err) {
				return fmt.Errorf("cancel %d: %w", id, err)
			}
			cancelled[id] = true
		}
	}

	// Wait for the victim to make real progress, then pull the plug.
	if err := d.waitProgress(victim, 2, 30*time.Second); err != nil {
		return err
	}
	if err := d.kill(); err != nil {
		return fmt.Errorf("kill -9: %w", err)
	}

	// Restart against the same journal directory; recovery must
	// re-register the interrupted victim and run it to completion.
	d2, err := startDaemon()
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	defer d2.kill()

	job, err := d2.waitTerminal(victim, 60*time.Second)
	if err != nil {
		return fmt.Errorf("victim after restart: %w", err)
	}
	if !job.Recovered {
		return fmt.Errorf("victim job %d not marked recovered: %+v", victim, job)
	}
	if job.Status != api.StatusDone || job.ScenariosDone != 10 {
		return fmt.Errorf("victim did not finish after recovery: %+v", job)
	}

	// The restarted daemon is a fresh service: fast jobs that finished
	// before the kill are finished journals (not re-registered), and new
	// submissions work immediately.
	check, err := d2.c.Submit(ctx, api.SubmitRequest{Name: "post-restart", Preset: "ladder", N: 4, Seed: 9})
	if err != nil {
		return fmt.Errorf("post-restart submit: %w", err)
	}
	if check.ID <= victim {
		return fmt.Errorf("post-restart job ID %d not past recovered ID %d", check.ID, victim)
	}
	if job, err := d2.waitTerminal(check.ID, 60*time.Second); err != nil || job.Status != api.StatusDone {
		return fmt.Errorf("post-restart job: %+v, %v", job, err)
	}

	// Graceful exit: SIGTERM drains and the process ends cleanly.
	if err := d2.term(15 * time.Second); err != nil {
		return fmt.Errorf("graceful shutdown: %w", err)
	}
	s.log.Info("daemon phase finished",
		"jobs", len(ids)+2, "chaos_cancelled", len(cancelled), "recovered_victim", victim)
	return nil
}

// faultScenarios builds n window-ladder scenarios with the given fault spec
// armed on each.
func faultScenarios(n, seed int, fault string) []campaign.Scenario {
	scs := make([]campaign.Scenario, n)
	for i := range scs {
		scs[i] = campaign.Scenario{Kind: "window-ladder", Seed: int64(seed + i), FaultSpec: fault}
	}
	return scs
}

func stallScenarios(n int) []campaign.Scenario {
	scs := make([]campaign.Scenario, n)
	for i := range scs {
		scs[i] = campaign.Scenario{Kind: "window-ladder", Seed: int64(300 + i), FaultSpec: "scenario-stall@1"}
	}
	return scs
}

// proc is one announced child process — a daemon, a pool worker or a
// coordinator — with a /v1 client pointed at its listener.
type proc struct {
	cmd *exec.Cmd
	url string
	c   *faultdclient.Client
}

// start launches bin, tees its stderr to <dir>/<role>-N.log for
// post-mortems (-keep), and waits for its listener announcement.
func (s *soak) start(role, bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	s.seq++
	lf, err := os.Create(filepath.Join(s.dir, fmt.Sprintf("%s-%d.log", role, s.seq)))
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, err
	}
	addrCh := make(chan string, 1)
	go func() {
		// Keep draining stderr for the process's lifetime so it never
		// blocks on a full pipe.
		defer lf.Close()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(lf, line)
			if !strings.Contains(line, "listening") {
				continue
			}
			if m := addrRE.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		url := "http://" + addr
		s.log.Info("started", "role", role, "url", url)
		return &proc{cmd: cmd, url: url, c: faultdclient.New(url)}, nil
	case <-time.After(20 * time.Second):
		_ = cmd.Process.Kill()
		return nil, fmt.Errorf("%s never announced its listener", role)
	}
}

// kill sends SIGKILL — no drain, no journal flush beyond appended lines —
// and reaps the process.
func (p *proc) kill() error {
	if p.cmd.Process == nil {
		return nil
	}
	err := p.cmd.Process.Kill()
	_, _ = p.cmd.Process.Wait()
	return err
}

// term sends SIGTERM and waits for a clean exit within the budget.
func (p *proc) term(budget time.Duration) error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { _, err := p.cmd.Process.Wait(); done <- err }()
	select {
	case err := <-done:
		return err
	case <-time.After(budget):
		_ = p.cmd.Process.Kill()
		return fmt.Errorf("did not exit within %s of SIGTERM", budget)
	}
}

// waitExit waits for the process to finish and succeed.
func (p *proc) waitExit(budget time.Duration) error {
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(budget):
		_ = p.cmd.Process.Kill()
		return fmt.Errorf("did not finish within %s", budget)
	}
}

// waitProgress polls until the job has completed at least n scenarios.
func (p *proc) waitProgress(id, n int, budget time.Duration) error {
	ctx := context.Background()
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		j, err := p.c.Get(ctx, id)
		if err != nil {
			return err
		}
		if j.ScenariosDone >= n {
			return nil
		}
		if j.Status.Terminal() {
			return fmt.Errorf("job %d ended %q before making progress", id, j.Status)
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("job %d never reached %d completions", id, n)
}

// waitTerminal polls until the job leaves the queued/running states.
func (p *proc) waitTerminal(id int, budget time.Duration) (*api.Job, error) {
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	job, err := p.c.WaitTerminal(ctx, id, 0)
	if err != nil && job != nil {
		return job, fmt.Errorf("job %d still %s after %s", id, job.Status, budget)
	}
	return job, err
}
