package repro

import (
	"os"
	"strings"
	"testing"

	"repro/internal/profile"
)

// TestRunReportsPinned pins the run report (profile.Report, what rxbench
// -experiment run prints) of five golden shapes, at a 20 ms window with
// 10 ms of warm-up and latency telemetry on, byte for byte against a plain
// text file under testdata/reports/, so a model change shows as a
// readable diff. Between them the shapes render every conditional
// section: the busiest-shards listing (xen/2q, rss/8nic-4q), a table of
// 10k entries and more, whose histogram stands without the listing
// (connscale/open), TIME_WAIT (churn/200flow), loss recovery
// (loss/uniform-sack), the Xen category table (xen/2q) and the baseline
// path's missing aggregation engines (rss/8nic-4q).
func TestRunReportsPinned(t *testing.T) {
	shapes := goldenShapes()
	for _, name := range []string{"xen/2q", "rss/8nic-4q", "connscale/open", "churn/200flow", "loss/uniform-sack"} {
		cfg := shapes[name]
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			file := "testdata/reports/" + strings.ReplaceAll(name, "/", "_") + ".txt"
			want, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			cfg.DurationNs = 20_000_000
			cfg.WarmupNs = 10_000_000
			cfg.Telemetry.Latency = true
			res, err := RunStream(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := profile.Report(cfg, res)
			if got == string(want) {
				return
			}
			gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := range max(len(gotLines), len(wantLines)) {
				var g, w string
				if i < len(gotLines) {
					g = gotLines[i]
				}
				if i < len(wantLines) {
					w = wantLines[i]
				}
				if g != w {
					t.Errorf("%s line %d:\n got %q\nwant %q", file, i+1, g, w)
					break
				}
			}
			t.Logf("rendered report:\n%s", got)
		})
	}
}
