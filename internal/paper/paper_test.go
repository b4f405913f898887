package paper

import (
	"math"
	"strings"
	"testing"
)

// TestRows: keys are unique, each row appears in its figure's footer (and
// fig1's footer holds no fig10 row), every band is non-empty and contains
// the paper's value, so a typo in either shows here rather than as a check
// that cannot pass, and footers wrap before 80 columns.
func TestRows(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range Rows {
		figure, _, _ := strings.Cut(r.Key, "/")
		if seen[r.Key] || !strings.Contains(Footer(figure), r.String()) {
			t.Errorf("%s: duplicate key, or its footer does not state it", r.Key)
		}
		seen[r.Key] = true
		if r.Checked() && (!(r.Lo < r.Hi) || !math.IsNaN(r.Paper) && !r.In(r.Paper)) {
			t.Errorf("%s: band [%v, %v] is empty or excludes the paper's %v", r.Key, r.Lo, r.Hi, r.Paper)
		}
		for _, line := range strings.Split(Footer(figure), "\n") {
			if len(line) >= 80 {
				t.Errorf("%s: footer line of %d columns", r.Key, len(line))
			}
		}
	}
	if strings.Contains(Footer("fig1"), Get("fig10/virt").Label) || Footer("fig5") != "" {
		t.Error("a footer holds another figure's rows")
	}
}
