// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (§V). Each experiment is a named entry
// in a registry shared by the featbench CLI and the repository's
// bench_test.go; DESIGN.md maps experiment ids to paper artifacts.
//
// CPU experiments report wall-clock seconds (the optimizations are real
// cache effects on the host). GPU experiments report simulated cycles from
// the cudasim cost model, printed as milliseconds at a nominal 1 GHz —
// absolute values are not comparable to the paper's V100, but ratios are
// the object of study (see DESIGN.md's substitution table).
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"featgraph/internal/cudasim"
	"featgraph/internal/graphgen"
)

// Config controls experiment sizing.
type Config struct {
	Scale     graphgen.Scale
	Seed      int64
	Threads   int   // max worker count for multi-threaded experiments
	Reps      int   // timed repetitions after one warm-up
	FeatLens  []int // feature-length sweep
	Epochs    int   // end-to-end training epochs per timing
	AccEpochs int   // epochs for the accuracy experiment (0 = scale default)
	Out       io.Writer

	datasets []graphgen.Dataset // lazily generated, shared across experiments
	device   *cudasim.Device
}

// DefaultConfig returns the standard configuration for a scale. Quick is
// sized so the whole suite completes on a laptop; Full approaches (but
// does not reach) paper scale.
func DefaultConfig(sc graphgen.Scale, out io.Writer) *Config {
	cfg := &Config{
		Scale:   sc,
		Seed:    1,
		Threads: 16,
		Reps:    2,
		Epochs:  2,
		Out:     out,
	}
	if sc == graphgen.Full {
		cfg.FeatLens = []int{32, 64, 128, 256, 512}
		cfg.Reps = 5
		cfg.Epochs = 3
	} else {
		cfg.FeatLens = []int{16, 32, 64, 128}
	}
	return cfg
}

// Datasets returns the three evaluation graphs, generated once per config.
func (c *Config) Datasets() []graphgen.Dataset {
	if c.datasets == nil {
		rng := rand.New(rand.NewSource(c.Seed))
		c.datasets = graphgen.Benchmarks(rng, c.Scale)
	}
	return c.datasets
}

// Device returns the shared simulated GPU.
func (c *Config) Device() *cudasim.Device {
	if c.device == nil {
		c.device = cudasim.NewDevice(cudasim.Config{})
	}
	return c.device
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	ID    string // e.g. "table3a", "fig12"
	Title string
	Run   func(cfg *Config) error
}

var registry []Experiment

func register(id, title string, run func(cfg *Config) error) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// Experiments returns the registry in registration (paper) order.
func Experiments() []Experiment { return registry }

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Table is a printable result grid.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	printRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
}

// timeIt runs one warm-up then reps timed runs, returning the mean seconds.
func timeIt(reps int, f func() error) (float64, error) {
	if reps < 1 {
		reps = 1
	}
	if err := f(); err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < reps; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Seconds() / float64(reps), nil
}

// secs formats a seconds value compactly.
func secs(s float64) string {
	switch {
	case s >= 1:
		return fmt.Sprintf("%.2fs", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.0fµs", s*1e6)
	}
}

// cyc formats simulated cycles exactly, so a diff of two runs' GPU tables
// shows any change in a cycle charge.
func cyc(c uint64) string {
	return fmt.Sprintf("%dcyc", c)
}

// ratio formats a/b as "N.Nx".
func ratio(a, b float64) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", a/b)
}
