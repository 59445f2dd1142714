// Package harness regenerates the paper's evaluation: one runner per
// figure (9 left/center/right, 10, 11, 12), each sweeping machine
// configurations, running the corresponding application on the simulator,
// validating the result against the host baseline, and emitting the
// speedup/throughput tables of the artifact appendix (Tables 8-12).
//
// Runner defaults are reduced-scale — minutes on a laptop instead of the
// artifact's CPU-weeks (its Table 6 estimates 780 minutes for PR on RMAT
// s28 alone) — chosen so the work-per-lane ratios at the largest swept
// configuration are comparable to the paper's, which is what the scaling
// shapes depend on. Every runner accepts larger scales and node counts.
package harness

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"updown"
	"updown/internal/arch"
	"updown/internal/metrics"
	"updown/internal/sim"
)

// Row is one machine configuration's measurement.
type Row struct {
	// Label is the x-axis value (node count, memory-node count, lane
	// count or data multiplier).
	Label string
	// Cycles is the simulated duration of the measured region.
	Cycles arch.Cycles
	// Seconds is Cycles at the machine clock.
	Seconds float64
	// Speedup is relative to the table's first row.
	Speedup float64
	// Metric is the throughput/latency value in MetricName units.
	Metric float64
	// HostMevS is the host-side simulation rate for this configuration:
	// millions of simulated events executed per wall-clock second. It
	// measures the simulator, not the simulated machine.
	HostMevS float64
	// Imbalance, DRAMUtil and InjUtil are utilization figures from the
	// metrics recorder, filled only when the sweep runs with profiling
	// enabled: peak-node busy cycles over the mean across touched nodes,
	// peak per-node DRAM bandwidth utilization, and peak per-node
	// injection-port utilization.
	Imbalance float64
	DRAMUtil  float64
	InjUtil   float64
	// CritPct is the causal critical-path length as a fraction of the
	// makespan (1.0 = fully serialized; lower = more latency hiding),
	// filled only when the sweep runs with critical-path tracing enabled.
	CritPct float64
	// Msgs and Tuples are the run's shuffle traffic: physical network
	// messages versus logical emitted tuples. They are equal for the
	// classic one-message-per-tuple shuffle; under coalescing their ratio
	// is the achieved packing factor (the tup/msg column).
	Msgs   int64
	Tuples int64
	// TaxPct and DRAMx are the replication-tax columns, filled only by
	// the replication extension of the placement sweep: the makespan
	// increase (percent) and the total DRAM service-byte multiple of
	// this row relative to the table's unreplicated (k=1) baseline.
	// Write traffic fans out to every replica, so DRAMx approaches the
	// replication factor for write-heavy phases; reads are served by a
	// single stripe and add no replicated bytes.
	TaxPct float64
	DRAMx  float64
}

// SweepOptions are the settings every figure sweep shares: host
// parallelism, the observability columns, the per-configuration
// simulation bound and progress reporting.
type SweepOptions struct {
	// Shards is the simulator host parallelism (0 = auto).
	Shards int
	// Profile enables the metrics recorder and fills the utilization
	// columns (imbalance, DRAM%, inj%) of every row.
	Profile bool
	// CritPath enables causal tracing and fills the crit% column of every
	// row (critical-path length over makespan).
	CritPath bool
	// MaxTime bounds simulated cycles per configuration (0 = the figure's
	// default). Configurations that exceed it are recorded as a table
	// note and skipped instead of aborting the sweep.
	MaxTime arch.Cycles
	// Progress, when non-nil, receives one line before and after every
	// configuration run (typically os.Stderr via the -progress flag), so
	// long sweeps are observable before their tables print.
	Progress io.Writer
}

// config completes one row's machine configuration with the shared
// settings. A recorder the row already asks for stays on without Profile.
func (o *SweepOptions) config(cfg updown.Config) updown.Config {
	cfg.Shards = o.Shards
	cfg.MaxTime = o.MaxTime
	if o.Profile {
		cfg.Metrics = &metrics.Options{}
	}
	cfg.Trace = traceConfig(o.CritPath)
	return cfg
}

// traceConfig returns the causal-tracing options for a sweep row: nil
// unless critical-path extraction was requested (spans are not needed for
// the crit% column, so only edge recording is enabled).
func traceConfig(critPath bool) *metrics.TraceOptions {
	if !critPath {
		return nil
	}
	return &metrics.TraceOptions{Causal: true}
}

// critPct is the crit% column of a finished run: the causal critical
// path over the makespan, 0 when the machine was built without tracing.
func critPct(m *updown.Machine) float64 {
	if m.Trace == nil || !m.Trace.CausalOn() {
		return 0
	}
	return m.Trace.CriticalPath().CritPct()
}

// progressf writes one sweep-progress line to w, or nothing when no
// progress destination was configured. Sweeps announce each
// configuration before running it and report wall time and host rate
// after, so a long sweep is observable without waiting for its table.
func progressf(w io.Writer, format string, args ...any) {
	if w == nil {
		return
	}
	fmt.Fprintf(w, format+"\n", args...)
}

// ProgressWriter maps a command's -progress flag to a sweep's Progress
// destination: stderr when set, none otherwise.
func ProgressWriter(on bool) io.Writer {
	if !on {
		return nil
	}
	return os.Stderr
}

// hostMevS converts an event count and a wall-clock duration into the
// host-Mev/s rate reported in sweep tables.
func hostMevS(events int64, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(events) / wall.Seconds() / 1e6
}

// sweep runs the rows of one table, each on a fresh machine.
type sweep struct {
	opt SweepOptions
	tb  *Table
	// tag names the table in progress lines and errors ("fig9-pr rmat").
	tag string
	// shuffle fills the msgs and tup/msg columns from the run stats.
	shuffle bool
	// relative marks a table whose columns are measured against its first
	// row (the replication tax): a timeout fails the sweep instead of
	// dropping a row, and progress reports wall time only.
	relative bool
}

// runner is an application installed on a machine, ready to run.
type runner interface {
	Run() (updown.Stats, error)
}

// runRow runs one configuration of s's table on a machine built from cfg
// and the shared options, and appends its row under label. build installs
// the application; fill validates the finished run and returns the
// figure's own columns (cycles, seconds, speedup, metric). The runner adds
// host-Mev/s, shuffle traffic, utilization and crit%. A simulation timeout
// becomes a table note naming key — one livelocked configuration (usually
// the smallest machine at an overlarge scale) should not cost the whole
// table — unless the table is relative.
func runRow[A runner](s *sweep, key, label string, cfg updown.Config,
	build func(*updown.Machine) (A, error), fill func(A, *updown.Machine) (Row, error)) error {
	row, err := func() (Row, error) {
		m, err := updown.New(s.opt.config(cfg))
		if err != nil {
			return Row{}, err
		}
		app, err := build(m)
		if err != nil {
			return Row{}, err
		}
		progressf(s.opt.Progress, "%s %s: running", s.tag, key)
		wall := time.Now()
		stats, err := app.Run()
		if err != nil {
			return Row{}, err
		}
		el := time.Since(wall)
		host := hostMevS(stats.Events, el)
		if s.relative {
			progressf(s.opt.Progress, "%s %s: done in %.1fs", s.tag, key, el.Seconds())
		} else {
			progressf(s.opt.Progress, "%s %s: done in %.1fs (%.2f host-Mev/s)", s.tag, key, el.Seconds(), host)
		}
		row, err := fill(app, m)
		row.Label, row.HostMevS = label, host
		if s.shuffle {
			row.Msgs, row.Tuples = stats.ShuffleMsgs, stats.ShuffleTuples
		}
		if m.Metrics != nil {
			u := m.Metrics.Profile().Summarize(m.Arch)
			row.Imbalance, row.DRAMUtil, row.InjUtil = u.Imbalance, u.DRAMUtil, u.InjUtil
		}
		row.CritPct = critPct(m)
		return row, err
	}()
	if errors.Is(err, sim.ErrTimeout) && !s.relative {
		s.tb.Notes = append(s.tb.Notes, fmt.Sprintf("%s skipped: %v", key, err))
		progressf(s.opt.Progress, "%s %s: timed out, skipped", s.tag, key)
		return nil
	}
	if err != nil {
		return fmt.Errorf("%s %s: %w", s.tag, key, err)
	}
	s.tb.Rows = append(s.tb.Rows, row)
	return nil
}

// rateRow is a row whose metric is work per simulated second, in units
// of unit (1e9 for GUPS).
func rateRow(m *updown.Machine, elapsed arch.Cycles, work, unit float64) Row {
	sec := m.Seconds(elapsed)
	return Row{Cycles: elapsed, Seconds: sec, Metric: work / sec / unit}
}

// Table is one series of one figure.
type Table struct {
	// Title names the experiment ("Figure 9 (left): PageRank").
	Title string
	// Workload names the graph or dataset.
	Workload string
	// MetricName labels the Metric column.
	MetricName string
	// Rows are ordered by configuration size.
	Rows []Row
	// Notes records validation results and substitutions.
	Notes []string
}

// FillSpeedups computes speedups relative to the first row.
func (t *Table) FillSpeedups() {
	if len(t.Rows) == 0 || t.Rows[0].Cycles == 0 {
		return
	}
	base := float64(t.Rows[0].Cycles)
	for i := range t.Rows {
		if t.Rows[i].Cycles > 0 {
			t.Rows[i].Speedup = base / float64(t.Rows[i].Cycles)
		}
	}
}

// tupPerMsg is the achieved packing factor of one row (1.0 for the
// classic shuffle; 0 when the run shuffled nothing).
func (r *Row) tupPerMsg() float64 {
	if r.Msgs == 0 {
		return 0
	}
	return float64(r.Tuples) / float64(r.Msgs)
}

// columns lists the table's columns. The optional groups — shuffle
// traffic, replication tax, utilization and crit% — are shown when any row
// carries them.
func (t *Table) columns() []column[Row] {
	shuf := func(r *Row) bool { return r.Msgs != 0 || r.Tuples != 0 }
	rep := func(r *Row) bool { return r.DRAMx != 0 }
	prof := func(r *Row) bool { return r.Imbalance != 0 || r.DRAMUtil != 0 || r.InjUtil != 0 }
	crit := func(r *Row) bool { return r.CritPct != 0 }
	return []column[Row]{
		{"config", "", -12, "s", func(r *Row) any { return r.Label }, nil},
		{"cycles", "", 14, "d", func(r *Row) any { return r.Cycles }, nil},
		{"seconds", "", 12, ".6f", func(r *Row) any { return r.Seconds }, nil},
		{"speedup", "", 10, ".2f", func(r *Row) any { return r.Speedup }, nil},
		{t.MetricName, "", 16, ".4g", func(r *Row) any { return r.Metric }, nil},
		{"host-Mev/s", "", 12, ".3f", func(r *Row) any { return r.HostMevS }, nil},
		{"msgs", "", 12, "d", func(r *Row) any { return r.Msgs }, shuf},
		{"tup/msg", "", 8, ".2f", func(r *Row) any { return r.tupPerMsg() }, shuf},
		{"tax%", "", 8, ".1f", func(r *Row) any { return r.TaxPct }, rep},
		{"dramx", "", 8, ".2f", func(r *Row) any { return r.DRAMx }, rep},
		{"imbal", "", 8, ".2f", func(r *Row) any { return r.Imbalance }, prof},
		{"dram%", "", 8, ".1f", func(r *Row) any { return 100 * r.DRAMUtil }, prof},
		{"inj%", "", 8, ".1f", func(r *Row) any { return 100 * r.InjUtil }, prof},
		{"crit%", "", 8, ".2f", func(r *Row) any { return 100 * r.CritPct }, crit},
	}
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	return formatText(t.Title+" — "+t.Workload, t.columns(), t.Rows, t.Notes)
}

// Markdown renders the table as a GitHub table (EXPERIMENTS.md).
func (t *Table) Markdown() string {
	return formatMarkdown(t.Title+" — "+t.Workload, t.columns(), t.Rows, t.Notes) + "\n"
}

// column is one column of a rendered table over rows of type R.
type column[R any] struct {
	head string
	// md is the markdown head when it differs from head.
	md string
	// width is the text width; negative left-aligns.
	width int
	// verb formats the cell after the width ("d", ".2f").
	verb string
	cell func(*R) any
	// opt, when set, makes the column optional: it is shown when opt holds
	// for any row. Columns of one group share their opt.
	opt func(*R) bool
}

// shown returns the columns rendered for rows.
func shown[R any](cols []column[R], rows []R) []column[R] {
	var out []column[R]
	for _, c := range cols {
		on := c.opt == nil
		for i := 0; !on && i < len(rows); i++ {
			on = c.opt(&rows[i])
		}
		if on {
			out = append(out, c)
		}
	}
	return out
}

// formatText renders rows as aligned text under a title line.
func formatText[R any](title string, cols []column[R], rows []R, notes []string) string {
	cols = shown(cols, rows)
	var b strings.Builder
	b.WriteString(title + "\n")
	for i, c := range cols {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%*s", c.width, c.head)
	}
	b.WriteByte('\n')
	for r := range rows {
		for i, c := range cols {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%*"+c.verb, c.width, c.cell(&rows[r]))
		}
		b.WriteByte('\n')
	}
	for _, n := range notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// formatMarkdown renders rows as a GitHub table under a bold title.
func formatMarkdown[R any](title string, cols []column[R], rows []R, notes []string) string {
	cols = shown(cols, rows)
	var b strings.Builder
	fmt.Fprintf(&b, "**%s**\n\n|", title)
	for _, c := range cols {
		head := c.md
		if head == "" {
			head = c.head
		}
		fmt.Fprintf(&b, " %s |", head)
	}
	b.WriteString("\n|" + strings.Repeat("---|", len(cols)) + "\n")
	for r := range rows {
		b.WriteByte('|')
		for _, c := range cols {
			fmt.Fprintf(&b, " %"+c.verb+" |", c.cell(&rows[r]))
		}
		b.WriteByte('\n')
	}
	for _, n := range notes {
		fmt.Fprintf(&b, "\n*note: %s*\n", n)
	}
	return b.String()
}

// PrintTables writes result tables to stdout as GitHub markdown or as
// aligned text. In text, a figure Table is followed by a blank line, as
// its markdown is.
func PrintTables[T interface {
	Format() string
	Markdown() string
}](markdown bool, tables ...T) {
	for _, t := range tables {
		if markdown {
			fmt.Print(t.Markdown())
			continue
		}
		fmt.Print(t.Format())
		if _, fig := any(t).(*Table); fig {
			fmt.Println()
		}
	}
}

// ParseNodeList parses "1,2,4,8" sweep flags. Entries must be whole
// positive integers — strconv.Atoi, not Sscanf, so trailing garbage like
// "8x" is rejected instead of silently parsing as 8. The result is sorted
// and deduplicated (a repeated entry would just re-run an identical
// configuration).
func ParseNodeList(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("harness: bad node list entry %q", f)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("harness: empty node list")
	}
	sort.Ints(out)
	dedup := out[:1]
	for _, n := range out[1:] {
		if n != dedup[len(dedup)-1] {
			dedup = append(dedup, n)
		}
	}
	return dedup, nil
}
