package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestObsFlagsValidate(t *testing.T) {
	cases := []struct {
		name    string
		f       obsFlags
		wantErr string
	}{
		{"defaults", obsFlags{Interval: 8192}, ""},
		{"zero interval", obsFlags{Interval: 0}, "-metrics-interval"},
		{"negative interval", obsFlags{Interval: -5, Profile: true}, "-metrics-interval"},
		{"spans without trace", obsFlags{Interval: 1, Spans: true}, "-spans"},
		{"spans with trace", obsFlags{Interval: 1, Spans: true, TracePath: "t.json"}, ""},
		{"critpath alone", obsFlags{Interval: 1, CritPath: true}, "-critpath"},
		{"flows alone", obsFlags{Interval: 1, Flows: true}, "-critpath/-flows"},
		{"critpath with profile", obsFlags{Interval: 1, CritPath: true, Profile: true}, ""},
		{"flows with trace", obsFlags{Interval: 1, Flows: true, TracePath: "t.json"}, ""},
		{"everything", obsFlags{Interval: 4096, Profile: true, TracePath: "t.json",
			Spans: true, CritPath: true, Flows: true}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.f.validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate(%+v) = %v, want nil", tc.f, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validate(%+v) = nil, want error mentioning %q", tc.f, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestObsFlagsTraceOptions(t *testing.T) {
	if o := (obsFlags{Interval: 1}).traceOptions(); o != nil {
		t.Errorf("tracing off: options = %+v, want nil", o)
	}
	o := (obsFlags{Interval: 1, Spans: true, TracePath: "t.json"}).traceOptions()
	if o == nil || !o.Spans || o.Causal {
		t.Errorf("spans only: options = %+v", o)
	}
	o = (obsFlags{Interval: 1, CritPath: true, Profile: true}).traceOptions()
	if o == nil || o.Spans || !o.Causal {
		t.Errorf("critpath only: options = %+v", o)
	}
}

func TestSimFlagsValidate(t *testing.T) {
	// ok is a valid baseline each case perturbs.
	ok := simFlags{App: "bfs", Nodes: 4}
	cases := []struct {
		name    string
		mut     func(*simFlags)
		wantErr string
	}{
		{"baseline", func(f *simFlags) {}, ""},
		{"checkpoint and restore", func(f *simFlags) { f.CkptPath = "a"; f.RestorePath = "b" }, "mutually exclusive"},
		{"checkpoint for match", func(f *simFlags) { f.App = "match"; f.CkptPath = "a" }, "pr|bfs|tc"},
		{"restore for ingest", func(f *simFlags) { f.App = "ingest"; f.RestorePath = "a" }, "pr|bfs|tc"},
		{"combine without coalesce", func(f *simFlags) { f.Combine = true }, "-coalesce"},
		{"combine with coalesce", func(f *simFlags) { f.Combine = true; f.Coalesce = true }, ""},
		{"negative rep", func(f *simFlags) { f.Rep = -1 }, "-rep"},
		{"rep beyond fan-out", func(f *simFlags) { f.Rep = 99 }, "-rep"},
		{"rep beyond nodes", func(f *simFlags) { f.Rep = 8 }, "not enough distinct nodes"},
		{"rep 2", func(f *simFlags) { f.Rep = 2 }, ""},
		{"victim without rep", func(f *simFlags) { f.Spare = true; f.VictimAt = 1000 }, "-rep 2"},
		{"victim without spare", func(f *simFlags) { f.Rep = 2; f.VictimAt = 1000 }, "-spare"},
		{"negative victim", func(f *simFlags) { f.VictimAt = -5 }, "-victim"},
		{"victim full config", func(f *simFlags) { f.Rep = 2; f.Spare = true; f.VictimAt = 1000 }, ""},
		{"victim one node", func(f *simFlags) { f.Nodes = 1; f.Rep = 1; f.Spare = true; f.VictimAt = 9 }, "-rep 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := ok
			tc.mut(&f)
			err := f.validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate(%+v) = %v, want nil", f, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validate(%+v) = nil, want error mentioning %q", f, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestCheckWarmStartMeta(t *testing.T) {
	flags := simFlags{App: "bfs", Nodes: 4, Spare: true, Rep: 2}
	good := warmStart{App: "bfs", Nodes: 4, Spare: true, Rep: 2}
	cases := []struct {
		name    string
		mut     func(*warmStart)
		wantErr string
	}{
		{"match", func(ws *warmStart) {}, ""},
		{"legacy checkpoint", func(ws *warmStart) { ws.Nodes = 0 }, "predates machine metadata"},
		{"app mismatch", func(ws *warmStart) { ws.App = "pr" }, "-app"},
		{"nodes mismatch", func(ws *warmStart) { ws.Nodes = 8 }, "-nodes"},
		{"spare mismatch", func(ws *warmStart) { ws.Spare = false }, "-spare"},
		{"rep mismatch", func(ws *warmStart) { ws.Rep = 3 }, "-rep"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ws := good
			tc.mut(&ws)
			err := checkWarmStartMeta(&ws, flags)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("got %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("got %v, want error mentioning %q", err, tc.wantErr)
			}
		})
	}
	// rep 0 and rep 1 are the same machine.
	ws := good
	ws.Rep = 1
	f := flags
	f.Rep = 0
	if err := checkWarmStartMeta(&ws, f); err != nil {
		t.Errorf("rep 0 vs 1 rejected: %v", err)
	}
}

// TestHelperCLI runs main on the arguments after "--" when the test binary
// is re-executed by runCLI; in a normal test run it does nothing.
func TestHelperCLI(t *testing.T) {
	for i, a := range os.Args {
		if a == "--" {
			os.Args = append([]string{"updown-sim"}, os.Args[i+1:]...)
			main()
			os.Exit(0)
		}
	}
}

// runCLI runs updown-sim with args in a child process and returns its
// combined output and exit status.
func runCLI(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestHelperCLI$", "--"}, args...)...)
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return string(out), ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return string(out), 0
}

// TestCLIInputErrors: bad -scale and -iters values end in a one-line error
// and exit status 1, never a panic, and -iters 0 runs and reports exactly
// what -iters 1 does (one iteration).
func TestCLIInputErrors(t *testing.T) {
	pr := []string{"-app", "pr", "-scale", "7", "-nodes", "1", "-accel", "2", "-shards", "1"}
	updates := func(out string) string {
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, "updates:") {
				return l
			}
		}
		return ""
	}
	one, code := runCLI(t, append(pr, "-iters", "1")...)
	if code != 0 || updates(one) == "" {
		t.Fatalf("-iters 1: exit %d\n%s", code, one)
	}
	zero, code := runCLI(t, append(pr, "-iters", "0")...)
	if code != 0 || updates(zero) != updates(one) {
		t.Errorf("-iters 0: exit %d, %q, want %q", code, updates(zero), updates(one))
	}
	for _, args := range [][]string{
		append(pr, "-iters", "-1"),
		{"-app", "bfs", "-scale", "-1", "-nodes", "1", "-accel", "2"},
		{"-app", "tc", "-scale", "70", "-nodes", "1", "-accel", "2"},
	} {
		out, code := runCLI(t, args...)
		if code != 1 || strings.Contains(out, "panic:") {
			t.Errorf("%v: exit %d, want 1 without a panic\n%s", args, code, out)
		}
	}
}
