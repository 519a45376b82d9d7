package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Prometheus text exposition (version 0.0.4), hand-rolled so the
// telemetry endpoint needs no dependency. A family is one TYPE line
// followed by one series per query — the format allows one TYPE line
// per metric name. Only non-empty histogram buckets are emitted
// (cumulative counts stay correct under any subset of boundaries),
// keeping the scrape small despite the fixed bucket table.

// PromLabels formats the single query label. Values are escaped per
// the exposition format.
func PromLabels(query string) string {
	return `query="` + escapeLabel(query) + `"`
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// WritePromType emits the TYPE header for a metric. kind is "counter",
// "gauge", or "histogram".
func WritePromType(w io.Writer, name, kind string) {
	fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
}

// WritePromCounterSeries emits one counter sample. labels is in
// "k=\"v\"" form, no braces, and may be empty.
func WritePromCounterSeries(w io.Writer, name, labels string, v uint64) {
	fmt.Fprintf(w, "%s{%s} %d\n", name, labels, v)
}

// WritePromGaugeSeries emits one gauge sample.
func WritePromGaugeSeries(w io.Writer, name, labels string, v float64) {
	fmt.Fprintf(w, "%s{%s} %g\n", name, labels, v)
}

// WritePromHistogramSeries emits s as the series of one histogram.
// With seconds set the observations are nanoseconds and leave in
// seconds, as Prometheus convention requires; otherwise they are
// unitless values (batch sizes, counts) and the "le" bounds and the
// sum are written as raw integers.
func WritePromHistogramSeries(w io.Writer, name, labels string, s HistSnapshot, seconds bool) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		cum += c
		le := strconv.FormatUint(BucketBound(i), 10)
		if seconds {
			le = formatSeconds(BucketBound(i))
		}
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, le, cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, s.Count)
	if seconds {
		fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, float64(s.Sum)/1e9)
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %d\n", name, labels, s.Sum)
	}
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, s.Count)
}

// formatSeconds renders a nanosecond bound as seconds for the "le"
// label, with enough precision to keep distinct bounds distinct.
func formatSeconds(ns uint64) string {
	return fmt.Sprintf("%g", float64(ns)/1e9)
}
