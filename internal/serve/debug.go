// The /debug/requests endpoints render the request journal: an HTML page
// for humans (the x/net/trace style), a JSON form for scripts, and a
// per-request Chrome trace-event download for Perfetto. They read only
// journal snapshots, so a scrape never contends with request handling
// beyond the journal mutex.
package serve

import (
	"fmt"
	"html/template"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/recurpat/rp/internal/obs"
)

// logAccess is the serve package's one access-log emitter, deferred by
// execute (both mine endpoints) and the dataset upload: one log line and
// one journal entry per request, whichever way it ended — served, cached,
// coalesced, shed, cancelled or failed.
func (s *Server) logAccess(msg string, start time.Time, rec *accessRecord) {
	if rec.id == "" {
		rec.id = obs.RequestID()
	}
	elapsed := time.Since(start)
	s.cfg.Logger.Info(msg,
		"id", rec.id, "db", rec.db, "fp", rec.fp, "opts", rec.opts,
		"outcome", rec.outcome, "status", rec.status, "cached", rec.cached,
		"patterns", rec.patterns,
		"queueMS", float64(rec.queueWait)/1e6,
		"mineMS", float64(rec.mineTime)/1e6,
		"allocBytes", rec.allocBytes,
		"cpuMS", float64(rec.cpuTime)/1e6,
		"elapsedMS", float64(elapsed)/1e6)
	s.journal.add(&RequestEntry{
		ID:         rec.id,
		Start:      start,
		DB:         rec.db,
		FP:         rec.fp,
		Opts:       rec.opts,
		Outcome:    rec.outcome,
		Status:     rec.status,
		Cached:     rec.cached,
		Patterns:   rec.patterns,
		QueueMS:    float64(rec.queueWait) / 1e6,
		MineMS:     float64(rec.mineTime) / 1e6,
		ElapsedMS:  float64(elapsed) / 1e6,
		AllocBytes: rec.allocBytes,
		CPUMS:      float64(rec.cpuTime) / 1e6,
		Phases:     activePhases(rec.report),
		Historic:   rec.historic,
		HasTrace:   len(rec.timeline.Spans) > 0,
		timeline:   rec.timeline,
	})
}

// activePhases keeps only the phases that observed time or work, the form
// journal entries retain and render.
func activePhases(r obs.PhaseReport) []obs.PhaseStat {
	var out []obs.PhaseStat
	for _, st := range r.Phases {
		if st.Nanos > 0 || st.Count > 0 {
			out = append(out, st)
		}
	}
	return out
}

// journalResponse is the JSON body of GET /debug/requests?format=json.
type journalResponse struct {
	// Total counts every request journalled since start, including those
	// the ring has since evicted.
	Total int64 `json:"total"`
	// Size and SlowThresholdMS echo the journal's retention constants.
	Size            int     `json:"size"`
	SlowThresholdMS float64 `json:"slowThresholdMS"`
	// Recent holds the retained requests newest-first; Slow the long-term
	// bucket of slowest requests, slowest-first.
	Recent []*RequestEntry `json:"recent"`
	Slow   []*RequestEntry `json:"slow"`
}

func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	recent, slow, total := s.journal.snapshot()
	resp := journalResponse{
		Total:           total,
		Size:            journalSize,
		SlowThresholdMS: float64(slowThreshold) / 1e6,
		Recent:          recent,
		Slow:            slow,
	}
	if r.URL.Query().Get("format") == "json" {
		s.writeJSON(w, http.StatusOK, resp)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	// An execute error past the first write only means the client left.
	_ = debugRequestsTmpl.Execute(w, resp)
}

// handleRequestTrace serves one journalled request's span timeline as
// Chrome trace-event JSON, loadable in Perfetto or chrome://tracing.
func (s *Server) handleRequestTrace(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		s.writeError(w, http.StatusBadRequest, "missing id parameter")
		return
	}
	e := s.journal.find(id)
	if e == nil {
		s.writeError(w, http.StatusNotFound,
			fmt.Sprintf("no journalled request %q (evicted, or never journalled)", id))
		return
	}
	if !e.HasTrace {
		s.writeError(w, http.StatusNotFound,
			fmt.Sprintf("request %q retained no span timeline (%s outcome)", id, e.Outcome))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", "rpserved-"+id+".json"))
	name := strings.TrimSpace("rpserved mine " + e.DB)
	// Embed the producing run's resource cost so a saved trace carries it
	// (rptrace prints these next to the span summary).
	var meta map[string]string
	if e.AllocBytes > 0 || e.CPUMS > 0 {
		meta = map[string]string{
			"requestAllocBytes": strconv.FormatUint(e.AllocBytes, 10),
			"requestCPUMS":      strconv.FormatFloat(e.CPUMS, 'f', 3, 64),
		}
	}
	_ = obs.WriteTraceEventsMeta(w, name, e.timeline, meta)
}

// debugRequestsTmpl renders the journal as a self-contained HTML page. The
// helper funcs keep the rows compact: millisecond columns with two
// decimals, and one phase-breakdown line per entry.
var debugRequestsTmpl = template.Must(template.New("requests").Funcs(template.FuncMap{
	"ms":     func(v float64) string { return fmt.Sprintf("%.2f", v) },
	"when":   func(t time.Time) string { return t.Format("15:04:05.000") },
	"bytes":  humanBytes,
	"phases": phaseSummary,
}).Parse(`<!DOCTYPE html>
<html>
<head>
<title>rpserved request journal</title>
<style>
body { font-family: sans-serif; margin: 1.5em; }
table { border-collapse: collapse; width: 100%; }
th, td { border: 1px solid #ccc; padding: 4px 8px; text-align: left; font-size: 13px; }
th { background: #eee; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.outcome-ok { color: #070; }
.outcome-bad { color: #a00; }
.phases { color: #555; font-size: 12px; }
.historic { color: #777; font-style: italic; }
</style>
</head>
<body>
<h1>rpserved request journal</h1>
<p>{{.Total}} requests journalled; the ring retains the last {{.Size}};
requests at or above {{ms .SlowThresholdMS}}&nbsp;ms also enter the slow bucket.</p>

{{define "rows"}}
{{range .}}
<tr>
<td>{{when .Start}}</td>
<td>{{if .HasTrace}}<a href="/debug/requests/trace?id={{.ID}}">{{.ID}}</a>{{else}}{{.ID}}{{end}}</td>
<td>{{.DB}}</td>
<td class="{{if eq .Status 200}}outcome-ok{{else}}outcome-bad{{end}}">{{.Outcome}}</td>
<td class="num">{{.Status}}</td>
<td class="num">{{.Patterns}}</td>
<td class="num">{{ms .QueueMS}}</td>
<td class="num">{{ms .MineMS}}</td>
<td class="num">{{ms .ElapsedMS}}</td>
<td class="num">{{bytes .AllocBytes}}</td>
<td class="num">{{ms .CPUMS}}</td>
<td class="phases">{{phases .}}{{if .Historic}} <span class="historic">(historic)</span>{{end}}</td>
</tr>
{{end}}
{{end}}

<h2>Recent requests</h2>
<table>
<tr><th>start</th><th>id</th><th>db</th><th>outcome</th><th>status</th><th>patterns</th>
<th>queue&nbsp;ms</th><th>mine&nbsp;ms</th><th>total&nbsp;ms</th><th>alloc</th><th>cpu&nbsp;ms</th><th>phases</th></tr>
{{template "rows" .Recent}}
</table>

<h2>Slowest requests</h2>
{{if .Slow}}
<table>
<tr><th>start</th><th>id</th><th>db</th><th>outcome</th><th>status</th><th>patterns</th>
<th>queue&nbsp;ms</th><th>mine&nbsp;ms</th><th>total&nbsp;ms</th><th>alloc</th><th>cpu&nbsp;ms</th><th>phases</th></tr>
{{template "rows" .Slow}}
</table>
{{else}}
<p>No request has crossed the slow threshold yet.</p>
{{end}}
</body>
</html>
`))

// humanBytes renders a byte count for the journal's alloc column: scaled
// to the largest power-of-two unit with one decimal.
func humanBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// phaseSummary renders an entry's phase breakdown on one line: timed
// phases as "name 1.23ms", count-only phases as "name ×42".
func phaseSummary(e *RequestEntry) string {
	if len(e.Phases) == 0 {
		return ""
	}
	parts := make([]string, 0, len(e.Phases))
	for _, st := range e.Phases {
		if st.Nanos > 0 {
			parts = append(parts, fmt.Sprintf("%s %.2fms", st.Phase, float64(st.Nanos)/1e6))
		} else {
			parts = append(parts, fmt.Sprintf("%s ×%d", st.Phase, st.Count))
		}
	}
	return strings.Join(parts, " · ")
}
