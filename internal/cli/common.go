package cli

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/obshttp"
	"repro/internal/sched"
	"repro/internal/trace"
)

// ByteSize is a flag.Value for byte quantities: a plain integer is bytes,
// and KiB/MiB/GiB (binary) or KB/MB/GB (decimal) suffixes are accepted,
// case-insensitively ("512MiB", "2gb", "1048576").
type ByteSize int64

func (b *ByteSize) String() string { return strconv.FormatInt(int64(*b), 10) }

// Set parses s into bytes.
func (b *ByteSize) Set(s string) error {
	u := strings.ToLower(strings.TrimSpace(s))
	mult := int64(1)
	for _, suf := range []struct {
		s string
		m int64
	}{
		{"kib", 1 << 10}, {"mib", 1 << 20}, {"gib", 1 << 30},
		{"kb", 1000}, {"mb", 1_000_000}, {"gb", 1_000_000_000},
		{"k", 1 << 10}, {"m", 1 << 20}, {"g", 1 << 30},
		{"b", 1},
	} {
		if strings.HasSuffix(u, suf.s) {
			mult = suf.m
			u = strings.TrimSpace(strings.TrimSuffix(u, suf.s))
			break
		}
	}
	v, err := strconv.ParseFloat(u, 64)
	if err != nil || v < 0 {
		return fmt.Errorf("invalid byte size %q (want e.g. 1048576, 512MiB, 2GB)", s)
	}
	*b = ByteSize(v * float64(mult))
	return nil
}

// Common holds the flag values every checker CLI shares: workload/battery
// selection (-w, -seeds, -threads, -size), the telemetry surfaces
// (-telemetry, -metrics-addr, -progress), and the run budgets (-timeout,
// -max-states, -mem-budget). It replaces the flag boilerplate that was
// repeated across cmd/coopcheck, cmd/racecheck, cmd/atomcheck and
// cmd/yieldinfer, and owns the SIGINT → graceful-drain wiring.
type Common struct {
	// Workload is the registered workload name (-w).
	Workload string
	// Seeds is the number of random schedules on top of the deterministic
	// battery (-seeds).
	Seeds int
	// Threads overrides the workload's worker count; 0 keeps the default
	// (-threads).
	Threads int
	// Size overrides the workload's problem size; 0 keeps the default
	// (-size).
	Size int
	// Telemetry, when set, is the path the run-report metrics snapshot is
	// written to on Close (-telemetry).
	Telemetry string
	// MetricsAddr, when set, serves live metrics JSON and pprof over HTTP
	// for the duration of the run (-metrics-addr).
	MetricsAddr string
	// Progress, when positive, is the interval of the stderr progress line
	// (-progress).
	Progress time.Duration
	// Flight, when set, enables the flight recorder for the run and writes
	// the recording here on Close (-flight); a .json suffix means Chrome
	// trace_event JSON (load in Perfetto), anything else the binary spill.
	Flight string
	// Timeout is the run's wall-clock budget (-timeout); when it expires
	// the tool reports partial results with status "deadline". 0 = none.
	Timeout time.Duration
	// MaxStates stops schedule execution after this many instrumented
	// events in total (-max-states); 0 = unlimited.
	MaxStates int64
	// MemBudget stops schedule execution once the heap exceeds it
	// (-mem-budget); 0 = unlimited.
	MemBudget ByteSize

	tool         string
	ctx          context.Context
	cancel       context.CancelFunc
	sigDone      chan struct{}
	status       sched.Status
	stopProgress func()
	shutdownHTTP func() error
	flightRec    *flight.Recorder
}

// NewCommon returns an empty Common for tools that register flag groups
// selectively (certify's exploration flags replace the battery group;
// tracedump runs on its own FlagSet). tool names the binary in telemetry
// metadata and diagnostics.
func NewCommon(tool string) *Common { return &Common{tool: tool} }

// RegisterWorkloadFlags registers the workload/battery selection flags
// (-w, -seeds, -threads, -size) on fs.
func (c *Common) RegisterWorkloadFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.Workload, "w", "", "workload name (see -list on coopcheck)")
	fs.IntVar(&c.Seeds, "seeds", 4, "random schedules on top of the deterministic battery")
	fs.IntVar(&c.Threads, "threads", 0, "worker override (0 = workload default)")
	fs.IntVar(&c.Size, "size", 0, "size override (0 = workload default)")
}

// RegisterTelemetryFlags registers the observability flags (-telemetry,
// -metrics-addr, -progress, -flight) on fs. StartTelemetry brings the
// surfaces up; Close flushes them.
func (c *Common) RegisterTelemetryFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.Telemetry, "telemetry", "", "write the run-report metrics snapshot to this JSON file")
	fs.StringVar(&c.MetricsAddr, "metrics-addr", "", "serve live metrics JSON + pprof on this address (e.g. :6060)")
	fs.DurationVar(&c.Progress, "progress", 0, "print a progress line to stderr at this interval (e.g. 5s)")
	fs.StringVar(&c.Flight, "flight", "", "record a flight trace and write it here (.json = Perfetto trace_event, else binary spill)")
}

// RegisterBudgetFlags registers the run-budget flags (-timeout,
// -max-states, -mem-budget) on fs.
func (c *Common) RegisterBudgetFlags(fs *flag.FlagSet) {
	fs.DurationVar(&c.Timeout, "timeout", 0, "wall-clock budget; on expiry report partial results with status \"deadline\" (0 = none)")
	fs.Int64Var(&c.MaxStates, "max-states", 0, "stop after this many instrumented events across all schedules (0 = unlimited)")
	fs.Var(&c.MemBudget, "mem-budget", "heap budget (e.g. 512MiB); stop with status \"budget-exhausted\" when exceeded (0 = unlimited)")
}

// RegisterCommon registers all shared flag groups on the default flag set
// and returns the destination struct. Call before flag.Parse.
func RegisterCommon(tool string) *Common {
	c := NewCommon(tool)
	c.RegisterWorkloadFlags(flag.CommandLine)
	c.RegisterTelemetryFlags(flag.CommandLine)
	c.RegisterBudgetFlags(flag.CommandLine)
	return c
}

// Start brings up the budget context (wall-clock deadline plus SIGINT →
// graceful drain) and the live telemetry surfaces the flags requested
// (the -metrics-addr HTTP endpoint and the -progress reporter). Call once
// after flag.Parse.
func (c *Common) Start() error {
	if c.Timeout > 0 {
		c.ctx, c.cancel = context.WithTimeout(context.Background(), c.Timeout)
	} else {
		c.ctx, c.cancel = context.WithCancel(context.Background())
	}
	// First ^C cancels the context so the battery drains cooperatively and
	// Close still flushes the telemetry; a second ^C aborts immediately.
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt)
	c.sigDone = make(chan struct{})
	go func() {
		defer signal.Stop(ch)
		select {
		case <-ch:
			fmt.Fprintf(os.Stderr, "%s: interrupt — draining and flushing telemetry (^C again to abort)\n", c.tool)
			c.cancel()
			select {
			case <-ch:
				os.Exit(130)
			case <-c.sigDone:
			}
		case <-c.sigDone:
		}
	}()
	return c.StartTelemetry()
}

// StartTelemetry brings up only the observability surfaces the flags
// requested — the -metrics-addr HTTP endpoint, the -progress reporter, and
// the -flight recorder — without touching signals or the budget context.
// Tools that own their signal handling (certify, tracedump) call this
// instead of Start; Close tears everything down either way.
func (c *Common) StartTelemetry() error {
	if c.MetricsAddr != "" {
		addr, shutdown, err := obshttp.Serve(c.MetricsAddr, obs.Default)
		if err != nil {
			return fmt.Errorf("%s: -metrics-addr: %w", c.tool, err)
		}
		c.shutdownHTTP = shutdown
		fmt.Fprintf(os.Stderr, "%s: metrics at http://%s/metrics, pprof at http://%s/debug/pprof/\n",
			c.tool, addr, addr)
	}
	if c.Progress > 0 {
		c.stopProgress = obs.StartProgress(os.Stderr, c.Progress, obs.Default)
	}
	if c.Flight != "" {
		c.flightRec = flight.Enable(flight.Options{})
	}
	return nil
}

// Context is the tool's budget context: it carries the -timeout deadline
// and is cancelled by the first SIGINT. Background() before Start.
func (c *Common) Context() context.Context {
	if c.ctx == nil {
		return context.Background()
	}
	return c.ctx
}

// Budget assembles the sched.Budget the flags describe. The -timeout
// deadline is already carried by Context, so only the state and memory
// budgets are set explicitly.
func (c *Common) Budget() sched.Budget {
	return sched.Budget{Ctx: c.Context(), MaxStates: c.MaxStates, MemBudget: int64(c.MemBudget)}
}

// SetStatus records why the tool's work ended; Close writes it into the
// run report's meta. Unset means "complete".
func (c *Common) SetStatus(s sched.Status) { c.status = s }

// Status returns the recorded run status, defaulting to complete.
func (c *Common) Status() sched.Status {
	if c.status == "" {
		return sched.StatusComplete
	}
	return c.status
}

// Partial reports whether the run was cut off before completing.
func (c *Common) Partial() bool { return c.Status() != sched.StatusComplete }

// Battery runs the standard schedule battery for the Common selection
// under the configured budgets. A cutoff returns the completed prefix of
// the battery (no error) and records the status for the run report.
func (c *Common) Battery() ([]*trace.Trace, []*sched.Result, error) {
	traces, results, status, err := BatteryBudget(c.Budget(), c.Workload, c.Seeds, c.Threads, c.Size)
	if err == nil && status != sched.StatusComplete {
		c.SetStatus(status)
		fmt.Fprintf(os.Stderr, "%s: budget cutoff (%s) — %d of the battery's schedules completed\n",
			c.tool, status, len(traces))
	}
	return traces, results, err
}

// Close stops the live surfaces and writes the -telemetry run report with
// the final status. Call it on every exit path (it is idempotent),
// including before os.Exit.
func (c *Common) Close() error {
	if c.stopProgress != nil {
		c.stopProgress()
		c.stopProgress = nil
	}
	if c.shutdownHTTP != nil {
		c.shutdownHTTP() //nolint:errcheck // best-effort teardown
		c.shutdownHTTP = nil
	}
	if c.sigDone != nil {
		close(c.sigDone)
		c.sigDone = nil
	}
	if c.cancel != nil {
		c.cancel()
		c.cancel = nil
	}
	// Disable before the telemetry snapshot so the flight.events /
	// flight.dropped counters it flushes land in the run report.
	if c.flightRec != nil {
		flight.Disable()
		rec := c.flightRec.Snapshot()
		c.flightRec = nil
		path := c.Flight
		c.Flight = ""
		if err := flight.WriteFile(path, rec); err != nil {
			return fmt.Errorf("%s: -flight: %w", c.tool, err)
		}
		fmt.Fprintf(os.Stderr, "%s: flight recording (%d events on %d tracks, %d dropped) written to %s\n",
			c.tool, rec.Events(), len(rec.Tracks), rec.Dropped, path)
	}
	if c.Telemetry != "" {
		s := obs.Default.Snapshot()
		s.Meta = map[string]string{"tool": c.tool, "status": string(c.Status())}
		if c.Workload != "" {
			s.Meta["workload"] = c.Workload
		}
		path := c.Telemetry
		c.Telemetry = ""
		if err := s.WriteFile(path); err != nil {
			return fmt.Errorf("%s: -telemetry: %w", c.tool, err)
		}
	}
	return nil
}
