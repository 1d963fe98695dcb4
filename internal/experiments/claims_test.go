package experiments

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// num parses a table cell or note figure: "0.506", "37.5%" (0.375),
// "83.1x". Text after the number is ignored.
func num(t *testing.T, s string) float64 {
	t.Helper()
	end := strings.IndexFunc(s, func(r rune) bool { return !strings.ContainsRune("+-.0123456789", r) })
	if end < 0 {
		end = len(s)
	}
	v, err := strconv.ParseFloat(s[:end], 64)
	if err != nil {
		t.Fatalf("%q does not start with a number", s)
	}
	if strings.HasPrefix(s[end:], "%") {
		v /= 100
	}
	return v
}

// column returns a table's cells under header col, parsed, one per row.
func column(t *testing.T, tb *Table, col string) []float64 {
	t.Helper()
	c := slices.Index(tb.Header, col)
	if c < 0 {
		t.Fatalf("%s has no column %q", tb.ID, col)
	}
	out := make([]float64, len(tb.Rows))
	for i, r := range tb.Rows {
		out[i] = num(t, r[c])
	}
	return out
}

// cell returns the cell under col of the row whose leading cells are key.
func cell(t *testing.T, tb *Table, col string, key ...string) float64 {
	t.Helper()
	c := slices.Index(tb.Header, col)
	for _, r := range tb.Rows {
		if c >= 0 && slices.Equal(r[:len(key)], key) {
			return num(t, r[c])
		}
	}
	t.Fatalf("%s has no cell %q in row %v", tb.ID, col, key)
	return 0
}

// noteAfter returns what follows marker in the first note containing it.
func noteAfter(t *testing.T, tb *Table, marker string) string {
	t.Helper()
	for _, n := range tb.Notes {
		if _, after, ok := strings.Cut(n, marker); ok {
			return after
		}
	}
	t.Fatalf("%s has no note containing %q", tb.ID, marker)
	return ""
}

// note returns the figure that follows marker in the table's notes.
func note(t *testing.T, tb *Table, marker string) float64 {
	t.Helper()
	return num(t, noteAfter(t, tb, marker))
}

// band fails unless lo <= v <= hi.
func band(t *testing.T, what string, v, lo, hi float64) {
	t.Helper()
	if v < lo || v > hi {
		t.Errorf("%s = %.4g, want within [%g, %g]", what, v, lo, hi)
	}
}

// knownGap records a claim quick scale does not reproduce, by the values it
// measures instead. It is not a skip: the values must stay as recorded, so
// a change that closes (or widens) the gap fails here and has to say so.
func knownGap(t *testing.T, claim string, got, recorded string) {
	t.Helper()
	if got != recorded {
		t.Errorf("known gap %q moved: measured %s, recorded %s — update the gap, or promote it to an assertion if it closed", claim, got, recorded)
		return
	}
	t.Logf("known gap at quick scale: %s (measured %s)", claim, got)
}

// TestPaperClaims asserts the shape of each headline claim of the paper's
// evaluation (EXPERIMENTS.md) on the quick-scale tables, with explicit
// bands. The numbers are the ones testdata/quick.golden pins.
func TestPaperClaims(t *testing.T) {
	t.Run("figure1/porting swings latency by an order of magnitude", func(t *testing.T) {
		band(t, "max normalized latency", slices.Max(column(t, quickTable(t, "figure1"), "normalized")), 10, 1e4)
	})
	t.Run("table1/guided synthesis is closer on the divergence metrics", func(t *testing.T) {
		tb := quickTable(t, "table1")
		for _, m := range []string{"Jensen-Shannon divergence", "Renyi divergence", "Bhattacharyya distance", "Variational distance"} {
			if g, b := cell(t, tb, "Clara", m), cell(t, tb, "baseline", m); g >= b {
				t.Errorf("%s: guided %.3f not below baseline %.3f", m, g, b)
			}
		}
	})
	t.Run("table2/seventeen elements from stateless to stateful", func(t *testing.T) {
		tb := quickTable(t, "table2")
		stateful := 0
		for _, r := range tb.Rows {
			if r[3] == "y" {
				stateful++
			}
		}
		band(t, "elements", float64(len(tb.Rows)), 17, 17)
		band(t, "stateful elements", float64(stateful), 1, 16)
	})
	t.Run("figure8/Clara predicts instructions better than the baselines", func(t *testing.T) {
		tb := quickTable(t, "figure8")
		clara := cell(t, tb, "Clara", "MEAN")
		for _, b := range []string{"DNN", "AutoML"} {
			if base := cell(t, tb, b, "MEAN"); clara >= base {
				t.Errorf("Clara mean WMAPE %.3f not below %s %.3f", clara, b, base)
			}
		}
		knownGap(t, "Clara's mean WMAPE beats CNN's", f3(clara)+" vs CNN "+f3(cell(t, tb, "CNN", "MEAN")), "0.506 vs CNN 0.488")
	})
	t.Run("figure8/memory-access counts are nearly exact", func(t *testing.T) {
		band(t, "worst memory-count accuracy", note(t, quickTable(t, "figure8"), "count accuracy "), 0.95, 1)
	})
	t.Run("figure8-ablation/vocabulary compaction", func(t *testing.T) {
		tb := quickTable(t, "figure8-ablation")
		band(t, "raw / compact vocabulary size", note(t, tb, " vs raw ")/note(t, tb, "vocabulary size "), 10, 1e3)
		knownGap(t, "the compact vocabulary predicts better than the raw one",
			f3(cell(t, tb, "compact-vocab WMAPE", "MEAN"))+" vs raw "+f3(cell(t, tb, "raw-vocab WMAPE", "MEAN")), "0.572 vs raw 0.487")
	})
	t.Run("reverse-port-ablation/exact library costs beat predicting them", func(t *testing.T) {
		tb := quickTable(t, "reverse-port-ablation")
		with, without := cell(t, tb, "with reverse porting", "MEAN"), cell(t, tb, "without (LSTM predicts API)", "MEAN")
		band(t, "mean WMAPE with reverse porting", with, 0, 0.15)
		band(t, "with / without", with/without, 0, 0.5)
	})
	t.Run("figure9/every identifier is precise", func(t *testing.T) {
		tb := quickTable(t, "figure9")
		band(t, "worst precision", slices.Min(column(t, tb, "precision")), 0.95, 1)
		band(t, "worst recall", slices.Min(column(t, tb, "recall")), 0.7, 1)
	})
	t.Run("figure10a/PCA separates the classes", func(t *testing.T) {
		band(t, "centroid separation / spread", note(t, quickTable(t, "figure10a"), "within-class spread = "), 1, 1e3)
	})
	t.Run("figure10b/the CRC engine raises throughput and cuts latency", func(t *testing.T) {
		tb := quickTable(t, "figure10b")
		for _, nf := range []string{"cmsketch", "wepdecap"} {
			naiveTh, naiveLat := cell(t, tb, "throughput(Mpps)", nf, "naive"), cell(t, tb, "latency(us)", nf, "naive")
			th, lat := cell(t, tb, "throughput(Mpps)", nf, "Clara(CRC engine)"), cell(t, tb, "latency(us)", nf, "Clara(CRC engine)")
			band(t, nf+" throughput gain", th/naiveTh, 1.1, 20)
			band(t, nf+" latency ratio", lat/naiveLat, 0, 0.9)
		}
		// wepdecap, whose RC4 stays on the cores, lands in the paper's band
		// (up to 1.6x, -25%); cmsketch's bit-serial CRCs overshoot it.
		band(t, "wepdecap throughput gain", note(t, tb, "wepdecap: throughput "), 1.1, 1.6)
	})
	t.Run("figure10c/the LPM engine is an order of magnitude faster", func(t *testing.T) {
		band(t, "smallest latency ratio", slices.Min(column(t, quickTable(t, "figure10c"), "lat ratio")), 10, 1e3)
	})
	t.Run("figure11a/GBDT predicts core counts best", func(t *testing.T) {
		maes := column(t, quickTable(t, "figure11a"), "MAE(cores)")
		if maes[0] != slices.Min(maes) {
			t.Errorf("Clara(GBDT) MAE %.2f is not the lowest of %v", maes[0], maes)
		}
	})
	t.Run("figure11b/suggested core counts are near the optimum", func(t *testing.T) {
		// Paper: 1-6% of the budget; the simulator's flat plateaus make the
		// optimum a set, so the point-to-point deviation here is wider.
		band(t, "mean deviation", note(t, quickTable(t, "figure11b"), "mean deviation "), 0, 0.15)
	})
	t.Run("figure11cd/the optimal core count beats using all cores", func(t *testing.T) {
		tb := quickTable(t, "figure11cd")
		band(t, "best gain over 60 cores", note(t, tb, "by up to "), 0.5, 10)
		// The memory-heavy NFs peak earlier under large flows (dnsproxy and
		// udpcount invert: small flows take their cheap fast-path exits).
		for _, nf := range []string{"mazunat", "webgen"} {
			var large, small int
			if _, err := fmt.Sscanf(noteAfter(t, tb, nf+": ratio peaks at "), "%d cores (large flows) vs %d", &large, &small); err != nil || large > small {
				t.Errorf("%s: knees %d (large flows) vs %d (small flows), err %v", nf, large, small, err)
			}
		}
	})
	t.Run("figure11ef/Clara's suggestion is near the best operating point", func(t *testing.T) {
		tb := quickTable(t, "figure11ef")
		for _, nf := range []string{"mazunat", "webgen"} {
			var best, suggested float64
			for _, r := range tb.Rows {
				if r[0] == nf {
					best = max(best, num(t, r[4]))
					if strings.Contains(r[1], "Clara suggests") {
						suggested = num(t, r[4])
					}
				}
			}
			band(t, nf+" suggested / best ratio", suggested/best, 0.9, 1)
		}
	})
	t.Run("figure12/the ILP placement beats all-EMEM", func(t *testing.T) {
		tb := quickTable(t, "figure12")
		for _, nf := range complexNFs {
			if c, n := cell(t, tb, "latency(us)", nf, "Clara"), cell(t, tb, "latency(us)", nf, "naive"); c >= n {
				t.Errorf("%s: Clara latency %.2f not below all-EMEM %.2f", nf, c, n)
			}
		}
		band(t, "average latency reduction", note(t, tb, "latency reduction "), 0.2, 0.5)
		band(t, "average throughput gain", note(t, tb, "throughput gain "), 0.05, 2)
	})
	t.Run("figure15/the ILP is close to the exhaustive expert", func(t *testing.T) {
		tb := quickTable(t, "figure15")
		band(t, "worst latency excess", note(t, tb, "latency up to "), 0, 0.097)
		band(t, "worst throughput shortfall", note(t, tb, "throughput up to "), 0, 0.076)
	})
	t.Run("figure13/packing never costs and saves cores", func(t *testing.T) {
		tb := quickTable(t, "figure13")
		saved := 0
		for _, nf := range coalesceNFs {
			nc, cc := cell(t, tb, "cores-to-saturate", nf, "naive"), cell(t, tb, "cores-to-saturate", nf, "Clara")
			if cc > nc || cell(t, tb, "latency(us)", nf, "Clara") > cell(t, tb, "latency(us)", nf, "naive") {
				t.Errorf("%s: packing costs cores or latency", nf)
			}
			if cc < nc {
				saved++
			}
		}
		band(t, "elements saving cores", float64(saved), 1, 4)
	})
	t.Run("figure16/the expert holds a small edge", func(t *testing.T) {
		tb := quickTable(t, "figure16")
		for _, nf := range coalesceNFs {
			band(t, nf+" Clara / expert cores", cell(t, tb, "cores-to-saturate", nf, "Clara")/cell(t, tb, "cores-to-saturate", nf, "expert"), 1, 1.5)
		}
	})
	t.Run("figure14a/the Th.Tot ranker finds a good colocation", func(t *testing.T) {
		tb := quickTable(t, "figure14a")
		band(t, "Th.Tot top-3", cell(t, tb, "top-3", "Th.Tot"), 0.85, 1)
		knownGap(t, "Th.Tot top-1 reaches 70%", pct(cell(t, tb, "top-1", "Th.Tot")), "37.5%")
	})
	t.Run("figure14bc/colocation strategies differ by up to ~15 points", func(t *testing.T) {
		band(t, "normalized throughput spread (points)", note(t, quickTable(t, "figure14bc"), "spread "), 5, 20)
	})
}
