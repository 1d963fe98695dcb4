package fleet

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"

	"clara/internal/analysis"
	"clara/internal/core"
	"clara/internal/isa"
)

// Summary renders a result batch as the analyze-fleet mode's table: one
// row per (NF, workload) with the headline insight from each analysis.
func Summary(results []Result) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "NF\tWORKLOAD\tCOMPUTE\tAPI\tMEM\tALGO\tCORES\tPLACEMENT\tPACKS\tLINT\tCACHE\tTIME")
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintf(w, "%s\t%s\terror: %v\t\t\t\t\t\t\t\t\t\n", r.Name, r.Workload, r.Err)
			continue
		}
		ins := r.Insights
		cache := "miss" // which store answered: neither, the §3 prediction's, the whole job's
		switch {
		case r.ResultHit:
			cache = "result"
		case r.CacheHit:
			cache = "hit"
		}
		fmt.Fprintf(w, "%s\t%s\t%.1f\t%d\t%d\t%s\t%d\t%s\t%d\t%s\t%s\t%s\n",
			r.Name, r.Workload,
			ins.Prediction.TotalCompute, ins.Prediction.TotalAPI, ins.Prediction.TotalMem,
			core.AlgoName(ins.Algorithm), ins.SuggestedCores,
			placementSummary(ins), len(ins.Packs), lintSummary(r.Lint), cache,
			r.Elapsed.Round(r.Elapsed/100+1))
	}
	w.Flush()
	return b.String()
}

// lintSummary compresses a diagnostic summary to "1E/2W/3I" (errors,
// warnings, infos), or "-" when the NF linted completely clean.
func lintSummary(s analysis.Summary) string {
	if s.Errors == 0 && s.Warnings == 0 && s.Infos == 0 {
		return "-"
	}
	return fmt.Sprintf("%dE/%dW/%dI", s.Errors, s.Warnings, s.Infos)
}

// placementSummary compresses a placement map to per-region counts in
// region order ("CLS:2 EMEM:1"), or "-" for stateless NFs.
func placementSummary(ins *core.Insights) string {
	if len(ins.Placement) == 0 {
		return "-"
	}
	counts := map[isa.Region]int{}
	for _, r := range ins.Placement {
		counts[r]++
	}
	regions := make([]isa.Region, 0, len(counts))
	for r := range counts { //claravet:allow keys are sorted before rendering
		regions = append(regions, r)
	}
	sort.Slice(regions, func(i, j int) bool { return regions[i] < regions[j] })
	parts := make([]string, 0, len(regions))
	for _, r := range regions {
		parts = append(parts, fmt.Sprintf("%s:%d", r, counts[r]))
	}
	return strings.Join(parts, " ")
}
