// Package server exposes the categorizer as an HTTP/JSON service — the
// web-facing shape of the paper's treeview application: a client POSTs a
// SQL query and receives the categorized result tree, explores it, and can
// turn any category path back into a refined query.
//
// Endpoints:
//
//	GET  /healthz        liveness plus dataset/workload sizes
//	GET  /v1/attributes  schema with per-attribute workload usage
//	POST /v1/query       {"sql": …, "technique": …, …} → categorized tree
//	POST /v1/refine      {"sql": …, "path": [0,2]} → refined SQL
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/resilience"
)

// StatusClientClosedRequest is the (nginx-conventional) status reported when
// the client abandoned the request before the categorization finished.
const StatusClientClosedRequest = 499

// Config configures a Server.
type Config struct {
	// System is the query/categorization engine to serve. Required. Build
	// it with repro.Config.TreeCacheEntries/TreeCacheBytes to memoize served
	// trees; the server reports hits via the X-Cache response header.
	System *repro.System
	// Options are the default categorizer parameters; per-request options
	// override individual fields.
	Options repro.Options
	// MaxDepth / MaxChildren bound the JSON tree payload (0 = no bound).
	MaxDepth    int
	MaxChildren int
	// Learn folds every served /v1/query into the workload statistics, so
	// the system's trees adapt to its own query stream. Requires a System
	// built from a raw workload.
	Learn bool
	// MaxBodyBytes bounds request bodies (413 beyond it). Default 1 MiB.
	MaxBodyBytes int64
	// MaxSessions caps the in-memory exploration-session table; the
	// least-recently-touched session is evicted at the cap. Default 1024.
	MaxSessions int
	// SessionTTL expires sessions untouched for this long. Default 30m.
	SessionTTL time.Duration

	// MaxConcurrent bounds how many /v1/query and /v1/refine requests may
	// compute categorizations at once (cache hits bypass the limiter — they
	// cost no computation). 0 disables admission control.
	MaxConcurrent int
	// MaxQueue bounds how many requests may wait for a computation slot
	// beyond MaxConcurrent; overflow is shed immediately with 503 and
	// Retry-After. 0 defaults to 2×MaxConcurrent; negative means no queue.
	MaxQueue int
	// Deadline is the server-imposed wall budget per categorization request;
	// when it fires the request fails with 504 (unlike a client hang-up,
	// which is 499). 0 means no server deadline. Requests may tighten it via
	// "timeoutMs".
	Deadline time.Duration
	// SoftBudget is the budget granted to the full-fidelity categorization
	// before Degrade kicks in; 0 defaults to half the effective deadline.
	SoftBudget time.Duration
	// Degrade serves cheaper approximations instead of 504s when the soft
	// budget is blown: first the Attr-Cost baseline, finally a flat
	// SHOWTUPLES tree. Degraded responses carry X-Degraded and a "degraded"
	// body field, and are never cached as full-fidelity trees.
	Degrade bool

	// WarmTopK enables predictive cache pre-warming (DESIGN.md §13): after
	// each published learn, a background worker re-categorizes the WarmTopK
	// most-requested signatures into the new generation, taking only idle
	// admission slots so it never competes with foreground traffic. Requires
	// Learn; 0 disables warming.
	WarmTopK int
	// WarmBudget is the wall budget per warming build. Default 2s.
	WarmBudget time.Duration
}

// Server handles the HTTP API.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	adaptive *repro.AdaptiveSystem // non-nil when Learn is enabled
	sessions *sessionTable
	limiter  *resilience.Limiter // nil when admission control is off
	draining atomic.Bool         // set by BeginShutdown
}

// New builds a Server. It errors when no System is configured, or when
// Learn is requested on a system that cannot learn.
func New(cfg Config) (*Server, error) {
	if cfg.System == nil {
		return nil, errors.New("server: config requires a System")
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 1024
	}
	if cfg.SessionTTL <= 0 {
		cfg.SessionTTL = 30 * time.Minute
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 2 * cfg.MaxConcurrent
	}
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		sessions: newSessionTable(cfg.MaxSessions, cfg.SessionTTL),
		limiter:  resilience.NewLimiter(cfg.MaxConcurrent, cfg.MaxQueue),
	}
	if cfg.Learn {
		a, err := cfg.System.Adaptive()
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.adaptive = a
		if cfg.WarmTopK > 0 {
			a.StartWarmer(repro.WarmerConfig{
				TopK:    cfg.WarmTopK,
				Budget:  cfg.WarmBudget,
				Opts:    cfg.Options,
				Limiter: s.limiter,
			})
		}
	} else if cfg.WarmTopK > 0 {
		return nil, errors.New("server: WarmTopK requires Learn")
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/attributes", s.handleAttributes)
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/refine", s.handleRefine)
	s.mux.HandleFunc("POST /v1/session", s.handleSessionCreate)
	s.mux.HandleFunc("POST /v1/session/{id}/op", s.handleSessionOp)
	s.mux.HandleFunc("GET /v1/session/{id}", s.handleSessionStatus)
	return s, nil
}

// Handler returns the root http.Handler.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginShutdown puts the server into drain mode: new categorization requests
// are shed with 503 (a load balancer should retry elsewhere), learning stops
// so the statistics quiesce while in-flight requests finish, and the
// pre-warmer is stopped (nothing left to warm for). Call it before
// http.Server.Shutdown; it is safe to call more than once.
func (s *Server) BeginShutdown() {
	s.draining.Store(true)
	if s.adaptive != nil {
		s.adaptive.StopWarmer()
	}
}

// rejectDraining sheds the request with 503 when the server is draining.
func (s *Server) rejectDraining(w http.ResponseWriter) bool {
	if !s.draining.Load() {
		return false
	}
	w.Header().Set("Retry-After", "1")
	writeErr(w, http.StatusServiceUnavailable, "server is draining")
	return true
}

// apiError is the uniform error payload.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := renderJSON(v)
	if err != nil {
		status, body = http.StatusInternalServerError, []byte("{\"error\":\"response encoding failed\"}\n")
	}
	writeBody(w, status, body)
}

// renderJSON renders a response body: exactly the bytes json.Encoder.Encode
// writes for v, trailing newline included. Every JSON response goes through
// it, including the /v1/query bodies a tree-cache entry stores.
func renderJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeBody writes a rendered JSON body with its Content-Length.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	// Write errors past the header cannot be reported to the client.
	_, _ = w.Write(body)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// currentSystem returns the system snapshot to serve this request from: the
// adaptive system's latest published snapshot, or the fixed base system.
func (s *Server) currentSystem() *repro.System {
	if s.adaptive != nil {
		return s.adaptive.System()
	}
	return s.cfg.System
}

// decodeBody bounds and decodes a JSON request body, writing the error
// response itself (413 for oversized bodies, 400 otherwise) and reporting
// whether the handler may proceed.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", tooBig.Limit)
			return false
		}
		writeErr(w, http.StatusBadRequest, "malformed JSON: %v", err)
		return false
	}
	return true
}

// writeServeErr maps a serving-path error to a status. A shed request is 503
// with Retry-After (the server did no work; retry is cheap), as is a
// recovered categorizer panic (transient: the process survived and the entry
// is not poisoned). A *server-imposed* deadline — recognized by the
// resilience.ErrServerTimeout cancellation cause, either tagged on the error
// by the serving path or still on ctx for errors raised before it — is 504;
// plain context cancellation/deadline is the client's doing and stays 499.
// Everything else is the caller's fallback (bad SQL, unknown technique, …).
func writeServeErr(w http.ResponseWriter, ctx context.Context, err error, fallback int) {
	var pe *resilience.PanicError
	ctxErr := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	switch {
	case errors.Is(err, resilience.ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
	case errors.As(err, &pe):
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusServiceUnavailable, "transient categorization failure: %v", err)
	case errors.Is(err, resilience.ErrServerTimeout),
		ctxErr && errors.Is(context.Cause(ctx), resilience.ErrServerTimeout):
		writeErr(w, http.StatusGatewayTimeout, "server deadline exceeded: %v", err)
	case ctxErr:
		writeErr(w, StatusClientClosedRequest, "request abandoned: %v", err)
	default:
		writeErr(w, fallback, "%v", err)
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	sys := s.currentSystem()
	body := map[string]any{
		"status":     "ok",
		"rows":       sys.Relation().Len(),
		"generation": sys.Generation(),
	}
	if s.adaptive != nil {
		body["workloadQueries"] = s.adaptive.WorkloadSize()
		body["learned"] = s.adaptive.Learned()
	} else {
		body["workloadQueries"] = sys.Stats().N()
	}
	if sys.CacheEnabled() {
		body["cache"] = sys.CacheStats()
		// Incremental-repair counters (DESIGN.md §13): how stale-generation
		// misses were satisfied — reused outright, repaired in place, or
		// rebuilt from scratch — plus the node-level copy/rebuild split.
		body["repair"] = sys.RepairStats()
	}
	if s.adaptive != nil {
		if ws, ok := s.adaptive.WarmerStats(); ok {
			body["warmer"] = ws
		}
	}
	// Selection-engine counters (DESIGN.md §9): Select counts, cumulative
	// Select wall time, and the conjunct-bitmap cache's
	// hits/misses/extensions/occupancy.
	body["select"] = sys.SelectStats()
	// Segmented-storage counters (DESIGN.md §14): sealed segments and bytes,
	// tail occupancy, seal count, and zone-map segments pruned vs scanned.
	body["storage"] = sys.StorageStats()
	// Durable-store state (DESIGN.md §15), present only for disk-backed
	// systems: WAL/segment/fsync counters, recovery outcome, and — when
	// recovery quarantined corrupt segments — the degraded flag plus the
	// quarantined files and row ranges. Degraded storage also flips the
	// top-level status so naive health probes notice.
	if ds, ok := sys.DurabilityStats(); ok {
		body["durability"] = ds
		if ds.Degraded {
			body["status"] = "degraded"
		}
	}
	// Shard-parallel build counters (DESIGN.md §12), plus GOMAXPROCS and the
	// active shard count so capacity debugging needs no flag archaeology.
	body["sharding"] = sys.ShardingStats()
	// Resilience counters (DESIGN.md §10): admission queue/shed, degradation
	// ladder activations, recovered panics, drain state.
	res := map[string]any{
		"serving":  sys.ResilienceStats(),
		"draining": s.draining.Load(),
	}
	if s.limiter != nil {
		res["admission"] = s.limiter.Stats()
	}
	body["resilience"] = res
	writeJSON(w, http.StatusOK, body)
}

// attributeInfo is one /v1/attributes row.
type attributeInfo struct {
	Name          string  `json:"name"`
	Type          string  `json:"type"`
	UsageFraction float64 `json:"usageFraction"`
}

func (s *Server) handleAttributes(w http.ResponseWriter, _ *http.Request) {
	// The current snapshot, not the construction-time system: with Learn on,
	// the reported usage fractions must reflect the learned workload.
	sys := s.currentSystem()
	schema := sys.Relation().Schema()
	out := make([]attributeInfo, 0, schema.Len())
	for i := 0; i < schema.Len(); i++ {
		a := schema.Attr(i)
		out = append(out, attributeInfo{
			Name:          a.Name,
			Type:          a.Type.String(),
			UsageFraction: sys.Stats().UsageFraction(a.Name),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// queryRequest is the /v1/query payload.
type queryRequest struct {
	SQL string `json:"sql"`
	// Technique: "cost-based" (default), "attr-cost", or "no-cost".
	Technique string `json:"technique,omitempty"`
	// M/K/X override the server's default categorizer options when > 0.
	M int     `json:"m,omitempty"`
	K float64 `json:"k,omitempty"`
	X float64 `json:"x,omitempty"`
	// MaxDepth / MaxChildren bound the returned tree (≤ server bounds).
	MaxDepth    int `json:"maxDepth,omitempty"`
	MaxChildren int `json:"maxChildren,omitempty"`
	// TimeoutMs tightens the server's deadline for this request (it can
	// never loosen a configured one).
	TimeoutMs int `json:"timeoutMs,omitempty"`
}

// treeNode is the JSON rendering of one category.
type treeNode struct {
	Label    string     `json:"label"`
	Attr     string     `json:"attr,omitempty"`
	Count    int        `json:"count"`
	P        float64    `json:"p"`
	Pw       float64    `json:"pw"`
	Path     []int      `json:"path"`
	Children []treeNode `json:"children,omitempty"`
	// Elided counts children omitted due to depth/width bounds.
	Elided int `json:"elided,omitempty"`
}

// queryResponse is the /v1/query result.
type queryResponse struct {
	ResultCount int      `json:"resultCount"`
	Levels      []string `json:"levels"`
	EstCostAll  float64  `json:"estCostAll"`
	EstCostOne  float64  `json:"estCostOne"`
	Categories  int      `json:"categories"`
	// Degraded is set ("attr-cost" or "flat") when the deadline budget
	// forced a cheaper presentation than the requested technique.
	Degraded string   `json:"degraded,omitempty"`
	Tree     treeNode `json:"tree"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w) {
		return
	}
	var req queryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	tech, err := parseTechnique(req.Technique)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	q, err := repro.ParseQuery(req.SQL)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	opts := s.cfg.Options
	if req.M > 0 {
		opts.M = req.M
	}
	if req.K > 0 {
		opts.K = req.K
	}
	if req.X > 0 {
		opts.X = req.X
	}
	out, ok := s.serveTree(w, r, q, tech, opts, req.TimeoutMs, true, http.StatusBadRequest)
	if !ok {
		return
	}
	sys := s.currentSystem()
	bounds := repro.RenderBounds{
		MaxDepth:    boundOrDefault(req.MaxDepth, s.cfg.MaxDepth),
		MaxChildren: boundOrDefault(req.MaxChildren, s.cfg.MaxChildren),
	}
	// A hit whose entry already holds the body for these bounds writes it
	// as is; otherwise render, and a hit stores what it rendered.
	body, stored := out.Body(bounds)
	if !stored {
		tree := out.Tree
		body, err = renderJSON(queryResponse{
			ResultCount: tree.Root.Size(),
			Levels:      tree.LevelAttrs,
			EstCostAll:  repro.EstimateCostAll(tree),
			EstCostOne:  repro.EstimateCostOne(tree, 0.5),
			Categories:  tree.NodeCount(),
			Degraded:    out.Degraded.String(),
			Tree:        toJSONTree(tree.Root, nil, bounds.MaxDepth, bounds.MaxChildren),
		})
		if err != nil {
			writeErr(w, http.StatusInternalServerError, "encode response: %v", err)
			return
		}
		sys.StoreBody(out, bounds, body)
	}
	setCacheHeader(w, out.Hit)
	setDegradedHeader(w, out.Degraded)
	setStorageHeader(w, sys)
	writeBody(w, http.StatusOK, body)
}

// serveTree is the resilient serving path shared by /v1/query and
// /v1/refine (DESIGN.md §10): probe the cache first (hits bypass admission
// control — they cost no computation), then acquire a concurrency slot,
// then serve under the deadline/degradation policy. On failure it writes
// the error response and reports ok = false.
func (s *Server) serveTree(w http.ResponseWriter, r *http.Request, q *repro.Query, tech repro.Technique, opts repro.Options, timeoutMs int, learn bool, fallback int) (repro.ServeOutcome, bool) {
	sys := s.currentSystem()
	if out, ok := sys.Peek(q, tech, opts); ok {
		if learn && s.adaptive != nil && !s.draining.Load() {
			s.adaptive.LearnQuery(q)
		}
		return out, true
	}
	ctx := r.Context()
	deadline := tightest(s.cfg.Deadline, time.Duration(timeoutMs)*time.Millisecond)
	if deadline > 0 {
		// The deadline wraps the whole computation, queue wait included: a
		// request that spends its budget waiting for a slot 504s like one
		// that spends it categorizing.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, deadline, resilience.ErrServerTimeout)
		defer cancel()
	}
	release, err := s.limiter.Acquire(ctx)
	if err != nil {
		writeServeErr(w, ctx, err, http.StatusServiceUnavailable)
		return repro.ServeOutcome{}, false
	}
	defer release()
	pol := repro.ServePolicy{SoftBudget: s.cfg.SoftBudget, Degrade: s.cfg.Degrade}
	if pol.Degrade && pol.SoftBudget <= 0 && deadline > 0 {
		pol.SoftBudget = deadline / 2
	}
	var out repro.ServeOutcome
	if s.adaptive != nil {
		out, err = s.adaptive.ExploreParsedWith(ctx, q, tech, opts, pol, learn && !s.draining.Load())
	} else {
		out, err = s.cfg.System.ServeParsedWith(ctx, q, tech, opts, pol)
	}
	if err != nil {
		writeServeErr(w, ctx, err, fallback)
		return out, false
	}
	if out.Tree == nil {
		writeErr(w, http.StatusInternalServerError, "categorization produced no tree")
		return out, false
	}
	return out, true
}

// tightest combines the configured deadline with the per-request one: the
// request may only tighten a configured deadline, and may impose one when
// the server has none.
func tightest(def, req time.Duration) time.Duration {
	switch {
	case req <= 0:
		return def
	case def > 0 && req > def:
		return def
	default:
		return req
	}
}

// setDegradedHeader reports the degradation rung, if any, to clients.
func setDegradedHeader(w http.ResponseWriter, d repro.Degradation) {
	if d != repro.DegradeNone {
		w.Header().Set("X-Degraded", d.String())
	}
}

// setStorageHeader marks responses served from a degraded durable store
// (quarantined segments: the rows are correct but incomplete, DESIGN.md §15).
// Added — not Set — so a response can carry both a ladder rung and "storage".
func setStorageHeader(w http.ResponseWriter, sys *repro.System) {
	if sys.StorageDegraded() {
		w.Header().Add("X-Degraded", "storage")
	}
}

// setCacheHeader reports cache disposition to clients (and to the catload
// generator, which splits latency percentiles on it).
func setCacheHeader(w http.ResponseWriter, hit bool) {
	if hit {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
}

// boundOrDefault combines the request bound with the server bound: the
// request may only tighten.
func boundOrDefault(req, def int) int {
	if req <= 0 {
		return def
	}
	if def > 0 && req > def {
		return def
	}
	return req
}

func toJSONTree(n *repro.Node, path []int, maxDepth, maxChildren int) treeNode {
	out := treeNode{
		Label: n.Label.String(),
		Attr:  n.Label.Attr,
		Count: n.Size(),
		P:     n.P,
		Pw:    n.Pw,
		Path:  append([]int(nil), path...),
	}
	if out.Path == nil {
		out.Path = []int{}
	}
	if n.IsLeaf() {
		return out
	}
	if maxDepth > 0 && len(path) >= maxDepth {
		out.Elided = len(n.Children)
		return out
	}
	limit := len(n.Children)
	if maxChildren > 0 && limit > maxChildren {
		limit = maxChildren
		out.Elided = len(n.Children) - limit
	}
	for i := 0; i < limit; i++ {
		out.Children = append(out.Children, toJSONTree(n.Children[i], append(path, i), maxDepth, maxChildren))
	}
	return out
}

// refineRequest is the /v1/refine payload.
type refineRequest struct {
	SQL  string `json:"sql"`
	Path []int  `json:"path"`
	// Technique/M/K/X must match the original /v1/query call for the path
	// to address the same node.
	Technique string  `json:"technique,omitempty"`
	M         int     `json:"m,omitempty"`
	K         float64 `json:"k,omitempty"`
	X         float64 `json:"x,omitempty"`
	// TimeoutMs tightens the server's deadline for this request.
	TimeoutMs int `json:"timeoutMs,omitempty"`
}

// refineResponse carries the narrowed query.
type refineResponse struct {
	SQL         string `json:"sql"`
	ResultCount int    `json:"resultCount"`
}

func (s *Server) handleRefine(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w) {
		return
	}
	var req refineRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	tech, err := parseTechnique(req.Technique)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	q, err := repro.ParseQuery(req.SQL)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	opts := s.cfg.Options
	if req.M > 0 {
		opts.M = req.M
	}
	if req.K > 0 {
		opts.K = req.K
	}
	if req.X > 0 {
		opts.X = req.X
	}
	// Refining does not learn: the client is navigating a tree /v1/query
	// already folded in, not issuing a new query.
	out, ok := s.serveTree(w, r, q, tech, opts, req.TimeoutMs, false, http.StatusInternalServerError)
	if !ok {
		return
	}
	refined, err := out.Tree.RefineQuery(q, req.Path)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	setCacheHeader(w, out.Hit)
	setDegradedHeader(w, out.Degraded)
	sys := s.currentSystem()
	setStorageHeader(w, sys)
	writeJSON(w, http.StatusOK, refineResponse{
		SQL:         refined.String(),
		ResultCount: len(sys.Relation().Select(refined.Predicate())),
	})
}

func parseTechnique(s string) (repro.Technique, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "cost-based", "cost", "costbased":
		return repro.CostBased, nil
	case "attr-cost", "attr", "attrcost":
		return repro.AttrCost, nil
	case "no-cost", "nocost", "no":
		return repro.NoCost, nil
	default:
		return 0, fmt.Errorf("unknown technique %q (want cost-based, attr-cost, or no-cost)", s)
	}
}
