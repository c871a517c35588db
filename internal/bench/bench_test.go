package bench

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"featgraph/internal/graphgen"
)

// tinyConfig returns a config with miniature datasets so every experiment
// finishes in well under a second.
func tinyConfig(out *bytes.Buffer) *Config {
	rng := rand.New(rand.NewSource(42))
	cfg := &Config{
		Scale:     graphgen.Quick,
		Seed:      42,
		Threads:   2,
		Reps:      1,
		Epochs:    1,
		AccEpochs: 5,
		FeatLens:  []int{8, 16},
		Out:       out,
	}
	cfg.datasets = []graphgen.Dataset{
		{Name: "ogbn-proteins-like", Adj: graphgen.Skewed(rng, 300, 12, 1.5)},
		{Name: "reddit-like", Adj: graphgen.Skewed(rng, 300, 12, 1.4)},
		{Name: "rand-100K-like", Adj: graphgen.TwoTier(rng, 300, 0.2, 40, 4)},
	}
	return cfg
}

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	want := []string{
		"table3a", "table3b", "table3c", "fig10", "fig11", "fig14", "table5",
		"table4a", "table4b", "table4c", "fig12", "fig13", "fig15",
		"table6", "accuracy",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if len(Experiments()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(Experiments()), len(want))
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID should miss unknown ids")
	}
}

func TestEveryExperimentRunsOnTinyInputs(t *testing.T) {
	for _, exp := range Experiments() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			var out bytes.Buffer
			cfg := tinyConfig(&out)
			// The accuracy experiment trains for 60 epochs even at tiny
			// scale; its dedicated test below uses fewer. Keep it but on
			// the smallest dataset.
			if err := exp.Run(cfg); err != nil {
				t.Fatalf("%s: %v", exp.ID, err)
			}
			s := out.String()
			if !strings.Contains(s, "==") {
				t.Fatalf("%s produced no table:\n%s", exp.ID, s)
			}
		})
	}
}

func TestDefaultConfigScales(t *testing.T) {
	var out bytes.Buffer
	q := DefaultConfig(graphgen.Quick, &out)
	f := DefaultConfig(graphgen.Full, &out)
	if len(f.FeatLens) <= len(q.FeatLens) && f.FeatLens[len(f.FeatLens)-1] <= q.FeatLens[len(q.FeatLens)-1] {
		t.Fatal("full config should sweep further than quick")
	}
	if f.Reps <= q.Reps {
		t.Fatal("full config should repeat more")
	}
}

func TestTableFormatting(t *testing.T) {
	var out bytes.Buffer
	tbl := &Table{
		Title:   "demo",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"xxxxxxx", "1"}, {"y", "2"}},
	}
	tbl.Fprint(&out)
	s := out.String()
	if !strings.Contains(s, "== demo ==") || !strings.Contains(s, "long-column") {
		t.Fatalf("bad table output:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 {
		t.Fatalf("want 5 lines, got %d:\n%s", len(lines), s)
	}
}

func TestFormatHelpers(t *testing.T) {
	if secs(2.5) != "2.50s" || secs(0.0025) != "2.50ms" || secs(0.0000025) != "2µs" {
		t.Fatalf("secs formatting: %s %s %s", secs(2.5), secs(0.0025), secs(0.0000025))
	}
	if cyc(2_500_000) != "2.50ms" {
		t.Fatalf("cyc formatting: %s", cyc(2_500_000))
	}
	if ratio(10, 2) != "5.0x" || ratio(1, 0) != "-" {
		t.Fatalf("ratio formatting: %s %s", ratio(10, 2), ratio(1, 0))
	}
}

func TestTimeItRunsWarmupPlusReps(t *testing.T) {
	calls := 0
	if _, err := timeIt(3, func() error { calls++; return nil }); err != nil {
		t.Fatal(err)
	}
	if calls != 4 {
		t.Fatalf("calls = %d, want 4 (1 warmup + 3)", calls)
	}
}
