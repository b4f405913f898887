package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/paper"
)

// TestJSONReport runs Figure 3 and one rr incast point with -json at a
// 5 ms window and 5 ms of warm-up, and checks that every recorded run
// identifies itself: its config is the resolved config the run used (so
// rerunning it reproduces the recorded result byte for byte), Connections
// carries its default, and rr points carry their message size.
func TestJSONReport(t *testing.T) {
	*duration, *warmup, *jsonOut = 5*time.Millisecond, 5*time.Millisecond, true
	runs = nil

	*experiment = "fig3"
	fig3, err := parseFlags()
	if err != nil {
		t.Fatal(err)
	}
	curExperiment = "fig3"
	fig3[0].run(io.Discard)
	curExperiment = "rr"
	rr := repro.DefaultStreamConfig(repro.SystemNativeUP, repro.OptFull)
	rr.NICs = 1
	rr.Connections = 4
	rr.RPC = repro.RPCConfig{Enabled: true, MessageBytes: 1448}
	streamMany([]repro.StreamConfig{rr})

	var out bytes.Buffer
	emitJSON(&out)
	var report struct {
		Schema int
		Runs   []struct {
			Experiment string
			Config     repro.StreamConfig
			Result     json.RawMessage
			Error      string
		}
	}
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatal(err)
	}
	if report.Schema != 1 {
		t.Errorf("schema = %d, want 1", report.Schema)
	}
	if len(report.Runs) != 2 {
		t.Fatalf("%d runs recorded, want 2", len(report.Runs))
	}
	for _, run := range report.Runs {
		if run.Error != "" {
			t.Errorf("%s: run failed: %s", run.Experiment, run.Error)
			continue
		}
		res, err := repro.RunStream(run.Config)
		if err != nil {
			t.Fatalf("%s: rerunning the recorded config: %v", run.Experiment, err)
		}
		want, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := json.Compact(&got, run.Result); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: recorded result differs from a rerun of the recorded config", run.Experiment)
		}
		switch run.Experiment {
		case "fig3":
			if run.Config.Connections != 5 {
				t.Errorf("fig3: config.Connections = %d, want the resolved 5", run.Config.Connections)
			}
		case "rr":
			if run.Config.RPC.MessageBytes != 1448 {
				t.Errorf("rr: config.RPC.MessageBytes = %d, want 1448", run.Config.RPC.MessageBytes)
			}
		}
	}
}

// TestEveryExperiment runs every experiment of -experiment all at a 2 ms
// window with 1 ms of warm-up on the native and the Xen receiver. No point
// may fail, every experiment must print a table, and the tables must be
// byte-identical whether the points run on one worker or two. Every paper
// figure must print its internal/paper footer and no other paper values.
func TestEveryExperiment(t *testing.T) {
	*duration, *warmup, *experiment, *queueList = 2*time.Millisecond, time.Millisecond, "all", "1,2,4,8"
	defer func() { *parallel = 1 }()
	for _, sys := range []string{"up", "xen"} {
		*sysFlag = sys
		selected, err := parseFlags()
		if err != nil {
			t.Fatal(err)
		}
		var tables [2]string
		for p := range tables {
			*parallel = p + 1
			runs, pointFailures = nil, 0
			var all strings.Builder
			for _, e := range selected {
				var out bytes.Buffer
				e.print(&out)
				if out.Len() == 0 {
					t.Errorf("-sys %s -parallel %d: %s printed nothing", sys, *parallel, e.name)
				}
				figure := strings.HasPrefix(e.name, "fig") || strings.HasPrefix(e.name, "table")
				if figure && (paper.Footer(e.name) == "" || strings.Count(out.String(), "(paper") != 1) {
					t.Errorf("%s: want one paper footer, from internal/paper:\n%s", e.name, out.String())
				}
				all.Write(out.Bytes())
			}
			if pointFailures != 0 {
				t.Errorf("-sys %s -parallel %d: %d points failed", sys, *parallel, pointFailures)
			}
			tables[p] = all.String()
		}
		if tables[0] != tables[1] {
			t.Errorf("-sys %s: tables differ between -parallel 1 and -parallel 2:\n%s\n---\n%s",
				sys, tables[0], tables[1])
		}
	}
}

// TestFailedPointPrintsFAILED feeds paper figures a system RunStream
// rejects. Figure 2 is one table, so its row is the whole table and reads
// FAILED with the run's error; in Figure 7 only the rejected system's row
// reads FAILED and the other keeps its figures. Every failed point is
// counted for the exit status.
func TestFailedPointPrintsFAILED(t *testing.T) {
	*duration, *warmup = 2*time.Millisecond, time.Millisecond
	saved := paperSystems
	defer func() { paperSystems = saved }()
	paperSystems = []repro.SystemKind{repro.SystemNativeUP, repro.SystemKind(9)}
	const failed = " FAILED: sim: unknown system 9"
	for _, tc := range []struct {
		run      func(io.Writer)
		failures int
		rows     map[string]bool // row prefix -> whether it must read FAILED
	}{
		{fig2, 1, map[string]bool{"Figure 2: per-byte vs per-packet overhead (full prefetching)": true}},
		{fig7, 3, map[string]bool{"Linux UP   ": false, "SystemKind(9)": true}},
	} {
		runs, pointFailures = nil, 0
		var out bytes.Buffer
		tc.run(&out)
		if pointFailures != tc.failures {
			t.Errorf("pointFailures = %d, want %d\n%s", pointFailures, tc.failures, out.String())
		}
		for prefix, wantFailed := range tc.rows {
			var row string
			for _, line := range strings.Split(out.String(), "\n") {
				if strings.HasPrefix(line, prefix) {
					row = line
				}
			}
			if row == "" || strings.HasSuffix(row, failed) != wantFailed || strings.Contains(row, "FAILED") != wantFailed {
				t.Errorf("row %q = %q, want FAILED: %v\n%s", prefix, row, wantFailed, out.String())
			}
		}
	}
}

// TestBadFlagsFailBeforeAnyRun checks that parseFlags, which main calls
// before its first run, rejects a bad -sys, -queues or -experiment.
func TestBadFlagsFailBeforeAnyRun(t *testing.T) {
	defer func() { *sysFlag, *queueList, *experiment = "up", "1,2,4,8", "all" }()
	for _, tc := range []struct{ sys, queues, experiment, want string }{
		{"bogus", "1,2,4,8", "all", "-sys"},
		{"up", "1,0", "all", "-queues"},
		{"up", "1,2,4,8", "fig5", "unknown experiment"},
	} {
		*sysFlag, *queueList, *experiment = tc.sys, tc.queues, tc.experiment
		_, err := parseFlags()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("-sys %s -queues %s -experiment %s: err = %v, want one naming %s",
				tc.sys, tc.queues, tc.experiment, err, tc.want)
		}
	}
}

// TestNegativeDurationsFailBeforeAnyRun: a negative -duration, -warmup or
// -churn fails parseFlags, naming the flag, instead of running an
// unbounded window or no churn at all; zero stays valid.
func TestNegativeDurationsFailBeforeAnyRun(t *testing.T) {
	defer func(d, w, c time.Duration) { *duration, *warmup, *churnEvery = d, w, c }(*duration, *warmup, *churnEvery)
	for _, tc := range []struct {
		flag string
		v    *time.Duration
	}{{"-duration", duration}, {"-warmup", warmup}, {"-churn", churnEvery}} {
		*duration, *warmup, *churnEvery = 150*time.Millisecond, 40*time.Millisecond, 0
		*tc.v = -time.Millisecond
		_, err := parseFlags()
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%s -1ms: err = %v, want one naming %s", tc.flag, err, tc.flag)
		}
		*tc.v = 0
		if _, err := parseFlags(); err != nil {
			t.Errorf("%s 0: err = %v", tc.flag, err)
		}
	}
}

// TestDocsNameExistingCLIs reads the documents that tell a reader how to
// drive the simulator and checks that what they name exists: every
// -experiment value is all or an entry of experiments, and every rx<name>
// word and cmd/<name> path names a CLI directory under cmd/ or bench/.
func TestDocsNameExistingCLIs(t *testing.T) {
	experimentArg := regexp.MustCompile(`-experiment[ =]([A-Za-z0-9_]+)`)
	cliWord := regexp.MustCompile(`\b(rx[a-z]+)\b`)
	cmdPath := regexp.MustCompile(`(?m)(?:^|[^A-Za-z0-9_./-])(?:\./)?cmd/([A-Za-z0-9_]+)`)
	known := map[string]bool{"all": true}
	for _, e := range experiments {
		known[e.name] = true
	}
	isCLI := func(name string) bool {
		for _, dir := range []string{"cmd", "bench"} {
			if fi, err := os.Stat(filepath.Join("..", "..", dir, name)); err == nil && fi.IsDir() {
				return true
			}
		}
		return false
	}
	for _, doc := range []string{"ARCHITECTURE.md", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"} {
		src, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		reported := map[string]bool{}
		for _, m := range experimentArg.FindAllSubmatch(src, -1) {
			if name := string(m[1]); !known[name] && !reported[name] {
				reported[name] = true
				t.Errorf("%s runs -experiment %s, which rxbench does not define", doc, name)
			}
		}
		for _, re := range []*regexp.Regexp{cliWord, cmdPath} {
			for _, m := range re.FindAllSubmatch(src, -1) {
				if name := string(m[1]); !isCLI(name) && !reported[name] {
					reported[name] = true
					t.Errorf("%s names %s, which is no CLI directory under cmd/ or bench/", doc, name)
				}
			}
		}
	}
}
