package rtec

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"time"

	"github.com/insight-dublin/insight/interval"
)

// Options configures an Engine.
type Options struct {
	// WorkingMemory (WM) is the window length: at query time Q only
	// SDEs in (Q−WM, Q] are considered. Must be positive.
	WorkingMemory Time
	// Step is the intended temporal distance between consecutive
	// query times (Q_i − Q_{i−1}). It is advisory — Query takes the
	// query time explicitly — but Run uses it, and making WM larger
	// than Step is what lets delayed SDEs be incorporated (Fig. 2).
	Step Time
	// Profile makes every Query record per-rule evaluation times in
	// Result.RuleCosts and allocation totals in Stats.AllocBytes, for
	// finding the expensive CE definitions.
	Profile bool
	// ForceFullRecompute disables the incremental overlap reuse
	// (see incremental.go): every rule is re-evaluated over the whole
	// window at every query, exactly like the original engine. Use it
	// to debug a rule whose declared Locality is suspect — the
	// incremental and full paths must produce identical results.
	ForceFullRecompute bool
	// Deprecated: ignored; an engine evaluates its rules serially in
	// stratum order, and parallelism comes from running several
	// engines (see Partitioned).
	RuleWorkers int
	// Deprecated: ignored; the engine's working memory is always the
	// column-resident store.
	Store StoreKind
}

// StoreKind named a working-memory implementation.
//
// Deprecated: the engine has one working memory; Options.Store is
// ignored.
type StoreKind uint8

// Deprecated: ignored, see StoreKind.
const (
	StoreRow StoreKind = iota
	StoreColumn
)

// Engine is a windowed RTEC evaluator. It accumulates SDEs as they
// arrive (possibly delayed and out of order) and computes, at each
// query time, the maximal intervals of every defined fluent and the
// occurrences of every derived event type within the working memory.
//
// An Engine is not safe for concurrent use; partition the stream over
// several engines (see Partitioned) for parallel recognition.
type Engine struct {
	defs *Definitions //state:transient compiled rule set, supplied at construction; Restore requires an identically-built engine
	opts Options      //state:transient config, supplied at construction

	store sdeStore // time-indexed SDE buckets
	// newStore builds an empty working memory: the column store, or a
	// reference store in the equivalence tests. Restore rebuilds
	// through it.
	newStore func() sdeStore //state:transient constructor, supplied at construction
	lastQ    Time
	started  bool

	// prev holds, per simple fluent, the un-clipped maximal interval
	// lists from the previous query. They seed the law of inertia at
	// the next window start.
	prev map[string]map[KV]List

	// cache holds, per local rule, the previous query's output for
	// overlap reuse (see incremental.go). Deliberately not captured:
	// a restored engine's first query falls back to a full recompute.
	//state:derived overlap cache, repopulated by the next query
	cache map[string]*ruleCache

	// seen tracks derived event instances already reported, for
	// Result.Fresh. Pruned as instances fall out of the window.
	seen map[derivedID]bool

	// rowScratch is the reusable admitted-row buffer of inputBlock;
	// sortKeys and rowCopy are the reusable buffers of its packed
	// time sort.
	rowScratch []int32  //state:transient reusable scratch
	sortKeys   []uint64 //state:transient reusable scratch
	rowCopy    []int32  //state:transient reusable scratch
}

type derivedID struct {
	typ  string
	key  string
	time Time
}

// NewEngine builds an engine over a compiled definition set.
func NewEngine(defs *Definitions, opts Options) (*Engine, error) {
	if defs == nil {
		return nil, fmt.Errorf("rtec: nil definitions")
	}
	if opts.WorkingMemory <= 0 {
		return nil, fmt.Errorf("rtec: working memory must be positive, got %d", opts.WorkingMemory)
	}
	if opts.Step < 0 {
		return nil, fmt.Errorf("rtec: step must be non-negative, got %d", opts.Step)
	}
	if opts.Step == 0 {
		opts.Step = opts.WorkingMemory
	}
	e := &Engine{
		defs:     defs,
		opts:     opts,
		newStore: newColumnStore,
		prev:     make(map[string]map[KV]List),
		cache:    make(map[string]*ruleCache),
		seen:     make(map[derivedID]bool),
	}
	e.store = e.newStore()
	return e, nil
}

// Options returns the engine configuration.
func (e *Engine) Options() Options { return e.opts }

// Input delivers SDEs to the engine. Events may arrive in any order
// and with delays; an event participates in every query whose window
// contains its occurrence time, provided it has arrived by then.
// Events of undeclared types are rejected, and the whole batch is
// rejected atomically: either every event is filed or none is.
func (e *Engine) Input(events ...Event) error {
	for _, ev := range events {
		if !e.defs.IsSDE(ev.Type) {
			return fmt.Errorf("rtec: event type %q was not declared as an SDE", ev.Type)
		}
	}
	for _, ev := range events {
		if e.started && ev.Time <= e.lastQ-e.opts.WorkingMemory {
			continue // too old to ever appear in a window again
		}
		// Events landing at or before the last query time arrive late:
		// an earlier query already evaluated that region, so cached
		// overlap results touching it are stale.
		e.store.insert(ev, e.started && ev.Time <= e.lastQ)
	}
	return nil
}

// InputBlock delivers a columnar batch of SDEs: every row of the block
// is filed, in row order, with exactly the semantics of Input — rows
// too old to ever appear in a window again are skipped, rows at or
// before the last query time are marked late. The engine copies the
// admitted rows into a block it owns, so the caller may reuse b
// immediately. A block whose admitted rows reach past its keys or
// columns, or whose key or string indexes reach past their
// dictionaries, is rejected whole, like an undeclared type: the error
// is returned and nothing is filed.
func (e *Engine) InputBlock(b *Block) error {
	return e.inputBlock(b, nil)
}

// InputBlockRows is InputBlock restricted to the given rows of b, in
// the given order. A row outside b is rejected like a malformed block.
func (e *Engine) InputBlockRows(b *Block, rows []int32) error {
	return e.inputBlock(b, rows)
}

func (e *Engine) inputBlock(b *Block, rows []int32) error {
	if !e.defs.IsSDE(b.Type) {
		return fmt.Errorf("rtec: event type %q was not declared as an SDE", b.Type)
	}
	tooOld := e.lastQ - e.opts.WorkingMemory
	e.rowScratch = e.rowScratch[:0]
	if rows == nil {
		n := b.Len()
		for i := 0; i < n; i++ {
			if e.started && Time(b.Times[i]) <= tooOld {
				continue // too old to ever appear in a window again
			}
			e.rowScratch = append(e.rowScratch, int32(i))
		}
	} else {
		for _, r := range rows {
			if r < 0 || int(r) >= len(b.Times) {
				return fmt.Errorf("rtec: block %q has no row %d (%d rows)", b.Type, r, len(b.Times))
			}
			if e.started && Time(b.Times[r]) <= tooOld {
				continue
			}
			e.rowScratch = append(e.rowScratch, r)
		}
	}
	if len(e.rowScratch) == 0 {
		return nil
	}
	if err := b.checkRows(e.rowScratch); err != nil {
		return err
	}
	// Sort the admitted rows by occurrence time, stably, so the owned
	// block meets insertRows' contract. Delivery (arrival) order is
	// preserved on ties, and since a bucket's time-sorted
	// arrival-stable order is unique, the store ends up bit-identical
	// to per-row insertion. Mediator jitter is bounded, so most blocks
	// arrive already sorted and the sort is a single scan.
	sorted := true
	for i := 1; i < len(e.rowScratch); i++ {
		if b.Times[e.rowScratch[i-1]] > b.Times[e.rowScratch[i]] {
			sorted = false
			break
		}
	}
	if !sorted {
		e.sortRows(b)
	}
	e.store.insertRows(b, e.rowScratch, e.started, e.lastQ)
	return nil
}

// sortRows stably sorts rowScratch by occurrence time. The hot path
// packs (time − minTime, position) pairs into uint64 keys and sorts
// those — branch-predictable integer comparisons, no closure calls —
// with the position in the low bits carrying the stability tie-break.
// Blocks whose time span overflows the packing (44 bits of delta, 20
// bits of position — never with bounded mediator jitter) fall back to
// the stable comparison sort.
func (e *Engine) sortRows(b *Block) {
	rs := e.rowScratch
	minT := b.Times[rs[0]]
	maxT := minT
	for _, r := range rs[1:] {
		if t := b.Times[r]; t < minT {
			minT = t
		} else if t > maxT {
			maxT = t
		}
	}
	const posBits = 20
	if len(rs) >= 1<<posBits || uint64(maxT-minT) >= 1<<(64-posBits) {
		sort.SliceStable(rs, func(i, j int) bool { return b.Times[rs[i]] < b.Times[rs[j]] })
		return
	}
	keys := e.sortKeys[:0]
	for j, r := range rs {
		keys = append(keys, uint64(b.Times[r]-minT)<<posBits|uint64(j))
	}
	slices.Sort(keys)
	e.sortKeys = keys
	e.rowCopy = append(e.rowCopy[:0], rs...)
	for j, k := range keys {
		rs[j] = e.rowCopy[k&(1<<posBits-1)]
	}
}

// Result is the outcome of one query-time evaluation.
type Result struct {
	// Q is the query time and Window the working memory span
	// [Q−WM+1, Q+1).
	Q      Time
	Window Span
	// Fluents holds, per fluent name and instance, the maximal
	// intervals clipped to the window.
	Fluents map[string]map[KV]List
	// Derived holds the derived events recognised in the window,
	// per event type, time-sorted.
	Derived map[string][]Event
	// Fresh lists the derived events not reported by any earlier
	// query, time-sorted — what a downstream consumer (e.g. the
	// crowdsourcing component) should act on.
	Fresh []Event
	// Stats summarises the evaluation.
	Stats Stats
	// RuleCosts holds per-rule evaluation times when the engine runs
	// with Options.Profile; nil otherwise.
	RuleCosts map[string]time.Duration
}

// Stats summarises one evaluation.
type Stats struct {
	InputEvents   int           // SDEs inside the window
	DerivedEvents int           // derived event instances recognised
	FluentPeriods int           // maximal intervals across all fluents
	Elapsed       time.Duration // wall-clock evaluation time
	// AllocBytes is the heap allocated during the evaluation
	// (cumulative TotalAlloc delta). Recorded only under
	// Options.Profile; 0 otherwise.
	AllocBytes uint64
	// ResidentBytes estimates the heap resident in the SDE store's
	// long-lived structures after eviction (see sdeStore). Recorded
	// only under Options.Profile; 0 otherwise.
	ResidentBytes uint64
}

// HoldsAt reports whether a boolean fluent instance holds at t
// according to this result.
func (r *Result) HoldsAt(fluent, key string, t Time) bool {
	m := r.Fluents[fluent]
	if m == nil {
		return false
	}
	return m[KV{Key: key, Value: TrueValue}].Contains(t)
}

// Intervals returns the clipped maximal intervals of a boolean fluent
// instance in this result.
func (r *Result) Intervals(fluent, key string) List {
	m := r.Fluents[fluent]
	if m == nil {
		return nil
	}
	return m[KV{Key: key, Value: TrueValue}]
}

// Query evaluates all CE definitions at query time q. Query times must
// be strictly increasing. SDEs that took place before or on q−WM are
// discarded permanently (RTEC's windowing); delayed SDEs inside the
// window are incorporated by re-evaluating the affected region —
// either the whole window, or, for rules with declared Locality and a
// clean overlap, just the head/tail slices around the cached middle
// (see incremental.go).
func (e *Engine) Query(q Time) (*Result, error) {
	if e.started && q <= e.lastQ {
		return nil, fmt.Errorf("rtec: query times must increase (got %d after %d)", q, e.lastQ)
	}
	begin := time.Now() //lint:allow nodeterminism wall-clock feeds only Stats.Elapsed, never the recognition result
	var memBefore runtime.MemStats
	if e.opts.Profile {
		runtime.ReadMemStats(&memBefore)
	}
	wm := e.opts.WorkingMemory
	windowStart := q - wm + 1
	window := Span{Start: windowStart, End: q + 1}

	// Discard SDEs at or before q−WM. SDEs after q stay in the store
	// but are hidden by the context view (they have not happened yet
	// from this query's standpoint).
	e.store.evict(q - wm)
	ctx := newStoreContext(q, window, e.store)

	res := &Result{
		Q:       q,
		Window:  window,
		Fluents: make(map[string]map[KV]List),
		Derived: make(map[string][]Event),
	}
	newPrev := make(map[string]map[KV]List, len(e.prev))
	newCache := make(map[string]*ruleCache, len(e.cache))
	if e.opts.Profile {
		res.RuleCosts = make(map[string]time.Duration, len(e.defs.rules))
	}
	for typ := range e.defs.sdeTypes {
		if b := e.store.bucket(typ); b != nil {
			res.Stats.InputEvents += b.countInSpan(ctx.view)
		}
	}

	// Evaluate rule by rule in compiled (stratum) order. Stratification
	// guarantees no rule reads a same- or higher-stratum output, so each
	// rule's output is filed into the context as soon as it finishes.
	for i := range e.defs.rules {
		rule := &e.defs.rules[i]
		var ruleStart time.Time
		if e.opts.Profile {
			ruleStart = time.Now() //lint:allow nodeterminism wall-clock feeds only Stats.RuleCosts profiling, never the recognition result
		}
		switch rule.kind {
		case kindSimple:
			var trans []Transition
			if p, ok := e.planSplice(i, q, windowStart); ok {
				trans = spliceTransitions(rule, e.cache[rule.name], p, ctx, windowStart, q)
			} else {
				trans = cacheTransitions(rule.simple.Transitions(ctx), windowStart, q)
			}
			full := evalSimpleFluent(trans, e.prev[rule.name], window, q)
			ctx.setFluent(rule.name, full)
			newPrev[rule.name] = full
			res.Fluents[rule.name] = clipInstances(full, window)
			newCache[rule.name] = &ruleCache{q: q, trans: trans}
		case kindStatic:
			inst := rule.static.HoldsFor(ctx)
			norm := make(map[KV]List, len(inst))
			for kv, l := range inst {
				if kv.Value == "" {
					kv.Value = TrueValue
				}
				if !l.Valid() {
					l = interval.Normalize(l)
				}
				if len(l) > 0 {
					norm[kv] = l
				}
			}
			ctx.setFluent(rule.name, norm)
			res.Fluents[rule.name] = clipInstances(norm, window)
		case kindEvent:
			var inWindow []Event
			if p, ok := e.planSplice(i, q, windowStart); ok {
				inWindow = spliceEvents(rule, e.cache[rule.name], p, ctx, windowStart, q)
			} else {
				evs := rule.event.Derive(ctx)
				inWindow = evs[:0]
				for _, ev := range evs {
					if window.Contains(ev.Time) {
						ev.Type = rule.name
						inWindow = append(inWindow, ev)
					}
				}
			}
			ctx.addEvents(rule.name, inWindow)
			res.Derived[rule.name] = inWindow
			newCache[rule.name] = &ruleCache{q: q, evs: inWindow}
		}
		if e.opts.Profile {
			res.RuleCosts[rule.name] += time.Since(ruleStart)
		}
	}

	// Fresh derived events: not seen at any earlier query time. When
	// the same identity (type, key, time) is derived more than once in
	// one query with different attributes — e.g. two buses disagreeing
	// with the same intersection at the same second — the survivor is
	// the one with the smallest canonical attribute rendering, not
	// whichever happened to be derived first: that makes the choice
	// independent of derivation interleaving, so a sharded tier
	// collapsing per-shard fresh sets picks the same survivor this
	// single engine does (see CanonicalAttrs).
	var fresh []Event
	var freshIdx map[derivedID]int
	for _, evs := range res.Derived {
		for _, ev := range evs {
			id := derivedID{typ: ev.Type, key: ev.Key, time: ev.Time}
			if e.seen[id] {
				if j, ok := freshIdx[id]; ok && CanonicalAttrs(ev) < CanonicalAttrs(fresh[j]) {
					fresh[j] = ev
				}
				continue
			}
			e.seen[id] = true
			if freshIdx == nil {
				freshIdx = make(map[derivedID]int)
			}
			freshIdx[id] = len(fresh)
			//lint:allow nodeterminism sortEvents below restores the total (time,type,key) order; surviving identities are unique
			fresh = append(fresh, ev)
		}
	}
	sortEvents(fresh)
	res.Fresh = fresh
	// Prune the seen set as instances fall out of reach.
	for id := range e.seen {
		if id.time <= q-wm {
			delete(e.seen, id)
		}
	}

	for _, evs := range res.Derived {
		res.Stats.DerivedEvents += len(evs)
	}
	for _, m := range res.Fluents {
		for _, l := range m {
			res.Stats.FluentPeriods += len(l)
		}
	}
	res.Stats.Elapsed = time.Since(begin)
	if e.opts.Profile {
		var memAfter runtime.MemStats
		runtime.ReadMemStats(&memAfter)
		res.Stats.AllocBytes = memAfter.TotalAlloc - memBefore.TotalAlloc
		res.Stats.ResidentBytes = e.store.residentBytes()
	}

	e.prev = newPrev
	e.cache = newCache
	e.store.clearDirty()
	e.lastQ = q
	e.started = true
	return res, nil
}

// Run evaluates at the regular query times start, start+Step,
// start+2·Step, ... while until > query time, feeding each result to
// the callback. It stops early if the callback returns an error.
func (e *Engine) Run(start, until Time, fn func(*Result) error) error {
	if e.opts.Step <= 0 {
		return fmt.Errorf("rtec: Run requires a positive step")
	}
	for q := start; q <= until; q += e.opts.Step {
		res, err := e.Query(q)
		if err != nil {
			return err
		}
		if fn != nil {
			if err := fn(res); err != nil {
				return err
			}
		}
	}
	return nil
}

// evalSimpleFluent turns a rule's transition points into maximal
// interval lists under inertia. prev seeds the value at the window
// start; initiating one value of a fluent instance terminates every
// other value at the same instant.
func evalSimpleFluent(trans []Transition, prev map[KV]List, window Span, q Time) map[KV]List {
	type pts struct {
		ini []Time
		ter []Time
	}
	groups := make(map[KV]*pts)
	valuesByKey := make(map[string]map[string]bool)

	note := func(kv KV) *pts {
		g := groups[kv]
		if g == nil {
			g = &pts{}
			groups[kv] = g
			vs := valuesByKey[kv.Key]
			if vs == nil {
				vs = make(map[string]bool)
				valuesByKey[kv.Key] = vs
			}
			vs[kv.Value] = true
		}
		return g
	}

	for _, tr := range trans {
		if tr.Value == "" {
			tr.Value = TrueValue
		}
		// Transitions must be observable in the window: the earliest
		// effective point is windowStart−1 (whose effect begins at
		// windowStart); anything after q cannot have been derived
		// from window events.
		if tr.Time < window.Start-1 || tr.Time > q {
			continue
		}
		g := note(KV{Key: tr.Key, Value: tr.Value})
		if tr.Kind == Initiate {
			g.ini = append(g.ini, tr.Time)
		} else {
			g.ter = append(g.ter, tr.Time)
		}
	}

	// Carry over instances holding at the window start (inertia
	// across windows).
	holdsAtStart := make(map[KV]bool)
	for kv, l := range prev {
		if l.Contains(window.Start) {
			holdsAtStart[kv] = true
			note(kv)
		}
	}

	// An initiation of value V at T terminates every other value of
	// the same key at T.
	for key, vs := range valuesByKey {
		if len(vs) < 2 {
			continue
		}
		for v := range vs {
			g := groups[KV{Key: key, Value: v}]
			for other := range vs {
				if other == v {
					continue
				}
				og := groups[KV{Key: key, Value: other}]
				g.ter = append(g.ter, og.ini...)
			}
		}
	}

	out := make(map[KV]List, len(groups))
	for kv, g := range groups {
		l := interval.FromTransitions(g.ini, g.ter, holdsAtStart[kv], window.Start, interval.MaxTime)
		if len(l) > 0 {
			out[kv] = l
		}
	}
	return out
}

func clipInstances(full map[KV]List, window Span) map[KV]List {
	out := make(map[KV]List, len(full))
	for kv, l := range full {
		if c := interval.Clip(l, window); len(c) > 0 {
			out[kv] = c
		}
	}
	return out
}
