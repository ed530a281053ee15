package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Operator export surface: the Observer's four streams (plus the rules
// engine's alerts) rendered as one versioned JSON document or as
// Prometheus-style text exposition, and served over HTTP by an admin
// listener. Zero dependencies — the text format is hand-rolled and the
// JSON schema is frozen under ExportSchema so external tooling can pin it.

// ExportSchema versions the JSON export document.
const ExportSchema = "flexitrust-obs/v1"

// Export is one point-in-time rendering of everything the Observer knows.
// Every stream reports Retained alongside its lifetime total so a scrape
// can never silently under-report: Dropped = total − retained is the
// eviction count for that ring.
type Export struct {
	Schema string `json:"schema"`
	// Label names the emitting process or experiment run ("" when unset).
	Label string `json:"label,omitempty"`
	// AtNs is the observer-clock timestamp of the snapshot (virtual time
	// under the simulator).
	AtNs int64 `json:"at_ns"`
	// Seq is the high-water causal sequence at snapshot time.
	Seq     uint64          `json:"seq"`
	Metrics MetricsSnapshot `json:"metrics"`
	Traces  TraceExport     `json:"traces"`
	Audit   AuditExport     `json:"audit"`
	Journal JournalExport   `json:"journal"`
	Alerts  AlertExport     `json:"alerts"`
	// Shards carries per-shard consensus stats when the exporter is
	// attached to a sharded cluster (empty for a single process).
	Shards []ShardExport `json:"shards,omitempty"`
}

// TraceExport is the tracing stream's export: counts plus the retained
// span trees.
type TraceExport struct {
	Started  uint64        `json:"started"`
	Sampled  uint64        `json:"sampled"`
	Retained int           `json:"retained"`
	Dropped  uint64        `json:"dropped"`
	Records  []TraceRecord `json:"records,omitempty"`
}

// AuditExport is the attested-access stream's export.
type AuditExport struct {
	Accesses  uint64           `json:"accesses"`
	Retained  int              `json:"retained"`
	Dropped   uint64           `json:"dropped"`
	Decisions []DecisionRecord `json:"decisions,omitempty"`
	Alarms    []Alarm          `json:"alarms,omitempty"`
	Records   []AccessRecord   `json:"records,omitempty"`
	// Windows carries the windowed-attestation records (windowed
	// FlexiTrust deployments only; empty otherwise).
	Windows []WindowRecord `json:"windows,omitempty"`
}

// JournalExport is the control-plane journal's export.
type JournalExport struct {
	Total    uint64  `json:"total"`
	Retained int     `json:"retained"`
	Dropped  uint64  `json:"dropped"`
	Events   []Event `json:"events,omitempty"`
}

// AlertExport is the rules engine's export (zero-valued when no rules
// engine is attached).
type AlertExport struct {
	Total    uint64  `json:"total"`
	Retained int     `json:"retained"`
	Dropped  uint64  `json:"dropped"`
	Records  []Alert `json:"records,omitempty"`
}

// ShardExport is one shard group's consensus-level stats as seen by the
// cluster aggregation hook. A group records latency in one histogram, which
// drops nothing: LatencySamples is its count, DroppedSamples is 0 and
// Truncated is false. The three fields stay so the flexitrust-obs/v1
// schema does not change.
type ShardExport struct {
	Shard          int    `json:"shard"`
	Submitted      uint64 `json:"submitted"`
	Committed      uint64 `json:"committed"`
	Watermark      uint64 `json:"watermark"`
	MeanLatNs      int64  `json:"mean_lat_ns"`
	P99LatNs       int64  `json:"p99_lat_ns"`
	View           uint64 `json:"view"`
	ViewChanges    uint64 `json:"view_changes"`
	LatencySamples int    `json:"latency_samples"`
	DroppedSamples uint64 `json:"dropped_samples"`
	Truncated      bool   `json:"truncated"`
	Health         string `json:"health,omitempty"`
}

// Exporter renders one Observer (and optionally a Rules engine and a
// cluster's per-shard stats) for operators. Configure the fields before
// the exporter starts serving; they are read concurrently afterwards.
// A zero Exporter and an Exporter over a nil Observer are both valid and
// render empty documents.
type Exporter struct {
	// O is the observer to export.
	O *Observer
	// Rules, when set, contributes the alerts section.
	Rules *Rules
	// Label names the emitting process in every export.
	Label string
	// Shards, when set, supplies per-shard consensus stats for the export
	// (wired to shard.Cluster's stats by the cluster constructor).
	Shards func() []ShardExport
	// Healthy, when set, contributes an extra liveness signal to /healthz
	// (e.g. "no group is stalled", "the replica has not stopped").
	Healthy func() bool
}

// Snapshot renders the full export document.
func (e *Exporter) Snapshot() Export {
	if e == nil {
		return Export{Schema: ExportSchema}
	}
	o := e.O
	ex := Export{
		Schema: ExportSchema,
		Label:  e.Label,
		AtNs:   int64(o.Now()),
		Seq:    o.Seq(),
	}
	ex.Metrics = o.Metrics().Snapshot()

	t := o.Tracer()
	ex.Traces.Started = t.Started()
	ex.Traces.Sampled = t.Sampled()
	ex.Traces.Records = t.Snapshot()
	ex.Traces.Retained = len(ex.Traces.Records)
	ex.Traces.Dropped = ex.Traces.Sampled - uint64(ex.Traces.Retained)

	a := o.Audit()
	ex.Audit.Accesses = a.TotalAccesses()
	ex.Audit.Records = a.Records()
	ex.Audit.Retained = len(ex.Audit.Records)
	ex.Audit.Dropped = ex.Audit.Accesses - uint64(ex.Audit.Retained)
	ex.Audit.Decisions = a.Decisions()
	ex.Audit.Alarms = a.Alarms()
	ex.Audit.Windows = a.Windows()

	j := o.Journal()
	ex.Journal.Total = j.Total()
	ex.Journal.Events = j.Events()
	ex.Journal.Retained = len(ex.Journal.Events)
	ex.Journal.Dropped = ex.Journal.Total - uint64(ex.Journal.Retained)

	if r := e.Rules; r != nil {
		ex.Alerts.Total = r.Total()
		ex.Alerts.Records = r.Alerts()
		ex.Alerts.Retained = len(ex.Alerts.Records)
		ex.Alerts.Dropped = ex.Alerts.Total - uint64(ex.Alerts.Retained)
	}
	if e.Shards != nil {
		ex.Shards = e.Shards()
	}
	return ex
}

// JSON renders the export document as indented JSON.
func (e *Exporter) JSON() ([]byte, error) {
	return json.MarshalIndent(e.Snapshot(), "", "  ")
}

// splitMetricName decomposes a registry name like
// "shard_op_latency_ns{group=3}" into its base name and rendered
// Prometheus label pairs (`group="3"`); names without an embedded label
// return an empty label string.
func splitMetricName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	inner := strings.TrimSuffix(name[i+1:], "}")
	parts := strings.Split(inner, ",")
	rendered := make([]string, 0, len(parts))
	for _, p := range parts {
		if k, v, ok := strings.Cut(p, "="); ok {
			rendered = append(rendered, k+`="`+v+`"`)
		}
	}
	return name[:i], strings.Join(rendered, ",")
}

// labelGroup extracts the group label from a registry name built with
// GroupLabel, or -1 when the name carries no group.
func labelGroup(name string) int {
	i := strings.Index(name, "{group=")
	if i < 0 {
		return -1
	}
	rest := strings.TrimSuffix(name[i+len("{group="):], "}")
	g, err := strconv.Atoi(rest)
	if err != nil {
		return -1
	}
	return g
}

// promLine writes one sample, merging the metric's own labels with extras.
func promLine(b *strings.Builder, base, labels, extra string, value string) {
	b.WriteString("flexitrust_")
	b.WriteString(base)
	if labels != "" || extra != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		if labels != "" && extra != "" {
			b.WriteByte(',')
		}
		b.WriteString(extra)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

// PrometheusText renders the registry (plus a few meta-series describing
// the observability streams themselves) in the Prometheus text exposition
// format, all series prefixed "flexitrust_". Per-group registry names
// ("name{group=N}") become proper group="N" labels; histograms render as
// summaries with 0.5/0.99 quantiles plus _sum and _count.
func (e *Exporter) PrometheusText() string {
	ex := e.Snapshot()
	var b strings.Builder

	writeFamily := func(names []string, typ string, sample func(base, labels, name string)) {
		sort.Strings(names)
		lastBase := ""
		for _, name := range names {
			base, labels := splitMetricName(name)
			if base != lastBase {
				fmt.Fprintf(&b, "# TYPE flexitrust_%s %s\n", base, typ)
				lastBase = base
			}
			sample(base, labels, name)
		}
	}

	names := make([]string, 0, len(ex.Metrics.Counters))
	for n := range ex.Metrics.Counters {
		names = append(names, n)
	}
	writeFamily(names, "counter", func(base, labels, name string) {
		promLine(&b, base, labels, "", strconv.FormatUint(ex.Metrics.Counters[name], 10))
	})

	names = names[:0]
	for n := range ex.Metrics.Gauges {
		names = append(names, n)
	}
	writeFamily(names, "gauge", func(base, labels, name string) {
		promLine(&b, base, labels, "", strconv.FormatInt(ex.Metrics.Gauges[name], 10))
	})

	names = names[:0]
	for n := range ex.Metrics.Histograms {
		names = append(names, n)
	}
	writeFamily(names, "summary", func(base, labels, name string) {
		h := ex.Metrics.Histograms[name]
		promLine(&b, base, labels, `quantile="0.5"`, strconv.FormatInt(h.P50, 10))
		promLine(&b, base, labels, `quantile="0.99"`, strconv.FormatInt(h.P99, 10))
		promLine(&b, base+"_sum", labels, "", strconv.FormatInt(h.Sum, 10))
		promLine(&b, base+"_count", labels, "", strconv.FormatUint(h.Count, 10))
	})

	// Meta-series: the observability streams' own volumes and loss counts,
	// so dashboards can alert on eviction and on audit alarms directly.
	meta := []struct {
		name, typ string
		value     uint64
	}{
		{"obs_traces_started", "counter", ex.Traces.Started},
		{"obs_traces_sampled", "counter", ex.Traces.Sampled},
		{"obs_traces_dropped", "counter", ex.Traces.Dropped},
		{"obs_audit_accesses", "counter", ex.Audit.Accesses},
		{"obs_audit_dropped", "counter", ex.Audit.Dropped},
		{"obs_audit_alarms", "gauge", uint64(len(ex.Audit.Alarms))},
		{"obs_journal_events", "counter", ex.Journal.Total},
		{"obs_journal_dropped", "counter", ex.Journal.Dropped},
		{"obs_alerts_total", "counter", ex.Alerts.Total},
	}
	for _, m := range meta {
		fmt.Fprintf(&b, "# TYPE flexitrust_%s %s\n", m.name, m.typ)
		promLine(&b, m.name, "", "", strconv.FormatUint(m.value, 10))
	}
	for _, s := range ex.Shards {
		extra := fmt.Sprintf(`shard="%d"`, s.Shard)
		fmt.Fprintf(&b, "# TYPE flexitrust_shard_committed counter\n")
		promLine(&b, "shard_committed", "", extra, strconv.FormatUint(s.Committed, 10))
	}
	return b.String()
}

// Health is the /healthz document.
type Health struct {
	// Status is "ok" or "degraded" (audit alarms outstanding, or the
	// Healthy hook reporting false).
	Status string `json:"status"`
	Alarms int    `json:"alarms"`
	Alerts uint64 `json:"alerts"`
	Seq    uint64 `json:"seq"`
	AtNs   int64  `json:"at_ns"`
}

// Health summarizes liveness: degraded when any audit alarm is
// outstanding or the Healthy hook reports false.
func (e *Exporter) Health() Health {
	h := Health{Status: "ok"}
	if e == nil {
		return h
	}
	h.Alarms = len(e.O.Audit().Alarms())
	if r := e.Rules; r != nil {
		h.Alerts = r.Total()
	}
	h.Seq = e.O.Seq()
	h.AtNs = int64(e.O.Now())
	if h.Alarms > 0 || (e.Healthy != nil && !e.Healthy()) {
		h.Status = "degraded"
	}
	return h
}

// Handler serves the admin endpoints:
//
//	/metrics  — Prometheus text exposition (?format=json → the full Export)
//	/healthz  — liveness JSON; HTTP 503 when degraded
//	/traces   — retained trace records as JSON (?format=text → tree dump)
//	/journal  — retained journal events as JSON (?format=text)
//	/audit    — audit export as JSON (?format=text → summary)
//	/alerts   — fired alerts as JSON
func (e *Exporter) Handler() http.Handler {
	mux := http.NewServeMux()
	writeJSON := func(w http.ResponseWriter, status int, v any) {
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		w.Write(data)
		w.Write([]byte("\n"))
	}
	writeText := func(w http.ResponseWriter, s string) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		fmt.Fprint(w, s)
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "json" {
			writeJSON(w, http.StatusOK, e.Snapshot())
			return
		}
		writeText(w, e.PrometheusText())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		h := e.Health()
		status := http.StatusOK
		if h.Status != "ok" {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, h)
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		var t *Tracer
		if e != nil {
			t = e.O.Tracer()
		}
		if r.URL.Query().Get("format") == "text" {
			writeText(w, t.Dump())
			return
		}
		recs := t.Snapshot()
		if recs == nil {
			recs = []TraceRecord{}
		}
		writeJSON(w, http.StatusOK, recs)
	})
	mux.HandleFunc("/journal", func(w http.ResponseWriter, r *http.Request) {
		var j *Journal
		if e != nil {
			j = e.O.Journal()
		}
		if r.URL.Query().Get("format") == "text" {
			writeText(w, j.String())
			return
		}
		evs := j.Events()
		if evs == nil {
			evs = []Event{}
		}
		writeJSON(w, http.StatusOK, evs)
	})
	mux.HandleFunc("/audit", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "text" {
			var a *Audit
			if e != nil {
				a = e.O.Audit()
			}
			writeText(w, a.String())
			return
		}
		writeJSON(w, http.StatusOK, e.Snapshot().Audit)
	})
	mux.HandleFunc("/alerts", func(w http.ResponseWriter, r *http.Request) {
		var recs []Alert
		if e != nil && e.Rules != nil {
			recs = e.Rules.Alerts()
		}
		if recs == nil {
			recs = []Alert{}
		}
		writeJSON(w, http.StatusOK, recs)
	})
	return mux
}

// Serve starts an HTTP server for the admin endpoints on addr, returning
// the server (for Shutdown) and the resolved listen address. Pass ":0"
// for an ephemeral port.
func (e *Exporter) Serve(addr string) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: e.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}
