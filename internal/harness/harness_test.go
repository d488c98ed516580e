package harness

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := &Table{
		Title:  "demo",
		Note:   "a note",
		Header: []string{"a", "long-column"},
	}
	tb.Add(1, "x")
	tb.Add(123456, 0.5)
	out := tb.String()
	if !strings.Contains(out, "== demo ==") || !strings.Contains(out, "a note") {
		t.Errorf("missing title/note:\n%s", out)
	}
	if !strings.Contains(out, "long-column") || !strings.Contains(out, "123456") {
		t.Errorf("missing cells:\n%s", out)
	}
	if !strings.Contains(out, "0.500") {
		t.Errorf("float not formatted:\n%s", out)
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("E1"); !ok {
		t.Error("E1 missing")
	}
	if _, ok := ByID("E99"); ok {
		t.Error("E99 found")
	}
	// All IDs unique.
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Title == "" {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
}

func TestRatio(t *testing.T) {
	if ratio(10, 0) != "-" {
		t.Error("zero predicted should dash")
	}
	if ratio(10, 4) != "2.50" {
		t.Errorf("ratio = %q", ratio(10, 4))
	}
}

func TestPow2s(t *testing.T) {
	got := pow2s(2, 6, 2)
	want := []int{4, 16, 64}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pow2s = %v", got)
		}
	}
}

// update rewrites the paper-layer golden from the tree under test:
//
//	go test ./internal/harness/ -run AllExperimentsRunQuick -update
var update = flag.Bool("update", false, "rewrite "+goldenPath)

// goldenPath holds the rendered quick-mode tables of the paper-layer
// experiments E1–E15, which every change must leave as they are.
const goldenPath = "testdata/quick_e1_e15.golden"

// maskE11 blanks what varies from run to run in E11's table — the
// wall-ms cells and the GOMAXPROCS in its title — before rendering, so
// the column widths stay fixed.
func maskE11(tb *Table) {
	tb.Title = regexp.MustCompile(`GOMAXPROCS = \d+`).ReplaceAllString(tb.Title, "GOMAXPROCS = *")
	for c, h := range tb.Header {
		if h == "wall-ms" {
			for _, r := range tb.Rows {
				r[c] = "*"
			}
		}
	}
}

// TestAllExperimentsRunQuick executes the whole suite in quick mode —
// the harness-level integration test; every experiment must complete
// without error and produce at least one populated table. The rendered
// tables of E1–E15 must match the committed golden.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("suite run skipped in -short")
	}
	cfg := Config{Quick: true, Seed: 1}
	rendered := map[string]string{}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s: no tables", e.ID)
			}
			var b strings.Builder
			fmt.Fprintf(&b, "### %s: %s\n\n", e.ID, e.Title)
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Errorf("%s: table %q empty", e.ID, tb.Title)
				}
				if len(tb.Header) == 0 {
					t.Errorf("%s: table %q has no header", e.ID, tb.Title)
				}
				for _, r := range tb.Rows {
					if len(r) != len(tb.Header) {
						t.Errorf("%s: row width %d != header %d in %q", e.ID, len(r), len(tb.Header), tb.Title)
					}
				}
				if e.ID == "E11" {
					maskE11(tb)
				}
				b.WriteString(tb.String())
				b.WriteByte('\n')
			}
			rendered[e.ID] = b.String()
		})
	}

	var got strings.Builder
	for i := 1; i <= 15; i++ {
		s, ok := rendered[fmt.Sprintf("E%d", i)]
		if !ok {
			return // filtered out by -run, or already failed
		}
		got.WriteString(s)
	}
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("E1–E15 output differs from %s at line %d:\n got  %q\n want %q", goldenPath, i+1, g, w)
		}
	}
}
