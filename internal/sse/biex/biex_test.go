package biex

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"datablinder/internal/crypto/primitives"
	"datablinder/internal/sse/emm"
	"datablinder/internal/store/kvstore"
)

func setup(t testing.TB, v Variant) (*Client, *Server) {
	t.Helper()
	key, err := primitives.NewRandomKey()
	if err != nil {
		t.Fatalf("key: %v", err)
	}
	c, err := NewClient(key, NewMemState(), v)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	return c, NewServer(kvstore.New(), "obs")
}

func insert(t testing.TB, c *Client, s *Server, id string, kws ...string) {
	t.Helper()
	groups, err := c.Insert("obs", id, kws, SingleShard)
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	for _, e := range groups {
		if err := s.Insert(*e); err != nil {
			t.Fatalf("server Insert: %v", err)
		}
	}
}

func run(t testing.TB, c *Client, s *Server, q Query) []string {
	t.Helper()
	tok, err := c.Token("obs", q)
	if err != nil {
		t.Fatalf("Token: %v", err)
	}
	vids, err := s.Search(tok)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	ids, err := c.Resolve("obs", vids)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	return ids
}

func pos(w string) Literal { return Literal{Keyword: w} }
func neg(w string) Literal { return Literal{Keyword: w, Negated: true} }

// seedCorpus inserts a small medical corpus shared by many tests.
func seedCorpus(t testing.TB, c *Client, s *Server) {
	insert(t, c, s, "d1", "status=final", "code=glucose", "interp=high")
	insert(t, c, s, "d2", "status=final", "code=glucose", "interp=normal")
	insert(t, c, s, "d3", "status=draft", "code=glucose", "interp=high")
	insert(t, c, s, "d4", "status=final", "code=insulin", "interp=high")
}

func variants(t *testing.T, f func(t *testing.T, variant Variant)) {
	t.Helper()
	for _, v := range []Variant{Variant2Lev, VariantZMF} {
		t.Run(string(v), func(t *testing.T) { f(t, v) })
	}
}

func TestSingleKeyword(t *testing.T) {
	variants(t, func(t *testing.T, v Variant) {
		c, s := setup(t, v)
		seedCorpus(t, c, s)
		got := run(t, c, s, Query{{pos("code=glucose")}})
		if !reflect.DeepEqual(got, []string{"d1", "d2", "d3"}) {
			t.Fatalf("single keyword = %v", got)
		}
	})
}

func TestConjunction(t *testing.T) {
	variants(t, func(t *testing.T, v Variant) {
		c, s := setup(t, v)
		seedCorpus(t, c, s)
		got := run(t, c, s, Query{{pos("status=final"), pos("code=glucose")}})
		if !reflect.DeepEqual(got, []string{"d1", "d2"}) {
			t.Fatalf("conjunction = %v", got)
		}
		got = run(t, c, s, Query{{pos("status=final"), pos("code=glucose"), pos("interp=high")}})
		if !reflect.DeepEqual(got, []string{"d1"}) {
			t.Fatalf("3-way conjunction = %v", got)
		}
	})
}

func TestDisjunction(t *testing.T) {
	variants(t, func(t *testing.T, v Variant) {
		c, s := setup(t, v)
		seedCorpus(t, c, s)
		got := run(t, c, s, Query{{pos("code=insulin")}, {pos("status=draft")}})
		if !reflect.DeepEqual(got, []string{"d3", "d4"}) {
			t.Fatalf("disjunction = %v", got)
		}
	})
}

func TestNegation(t *testing.T) {
	variants(t, func(t *testing.T, v Variant) {
		c, s := setup(t, v)
		seedCorpus(t, c, s)
		// final AND NOT high -> d2
		got := run(t, c, s, Query{{pos("status=final"), neg("interp=high")}})
		if !reflect.DeepEqual(got, []string{"d2"}) {
			t.Fatalf("negation = %v", got)
		}
	})
}

func TestDNFMix(t *testing.T) {
	variants(t, func(t *testing.T, v Variant) {
		c, s := setup(t, v)
		seedCorpus(t, c, s)
		// (glucose AND high) OR (insulin) -> d1, d3, d4
		got := run(t, c, s, Query{
			{pos("code=glucose"), pos("interp=high")},
			{pos("code=insulin")},
		})
		if !reflect.DeepEqual(got, []string{"d1", "d3", "d4"}) {
			t.Fatalf("DNF = %v", got)
		}
	})
}

func TestEmptyResults(t *testing.T) {
	variants(t, func(t *testing.T, v Variant) {
		c, s := setup(t, v)
		seedCorpus(t, c, s)
		if got := run(t, c, s, Query{{pos("code=never")}}); len(got) != 0 {
			t.Fatalf("unknown keyword = %v", got)
		}
		if got := run(t, c, s, Query{{pos("status=draft"), pos("code=insulin")}}); len(got) != 0 {
			t.Fatalf("unsatisfiable conjunction = %v", got)
		}
	})
}

func TestDeleteHidesDocument(t *testing.T) {
	variants(t, func(t *testing.T, v Variant) {
		c, s := setup(t, v)
		seedCorpus(t, c, s)
		if err := c.Delete("obs", "d1"); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		got := run(t, c, s, Query{{pos("code=glucose")}})
		if !reflect.DeepEqual(got, []string{"d2", "d3"}) {
			t.Fatalf("after delete = %v", got)
		}
		got = run(t, c, s, Query{{pos("status=final"), pos("interp=high")}})
		if !reflect.DeepEqual(got, []string{"d4"}) {
			t.Fatalf("conjunction after delete = %v", got)
		}
	})
}

func TestUpdateReplacesKeywords(t *testing.T) {
	variants(t, func(t *testing.T, v Variant) {
		c, s := setup(t, v)
		seedCorpus(t, c, s)
		// d3 transitions draft -> final: delete + reinsert with new keywords.
		if err := c.Delete("obs", "d3"); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		insert(t, c, s, "d3", "status=final", "code=glucose", "interp=high")

		got := run(t, c, s, Query{{pos("status=draft")}})
		if len(got) != 0 {
			t.Fatalf("stale keyword still matches: %v", got)
		}
		got = run(t, c, s, Query{{pos("status=final"), pos("code=glucose")}})
		if !reflect.DeepEqual(got, []string{"d1", "d2", "d3"}) {
			t.Fatalf("after update = %v", got)
		}
	})
}

func TestDeleteUnknownIsNoop(t *testing.T) {
	c, _ := setup(t, Variant2Lev)
	if err := c.Delete("obs", "never-existed"); err != nil {
		t.Fatalf("Delete(unknown): %v", err)
	}
}

func TestQueryValidation(t *testing.T) {
	c, _ := setup(t, Variant2Lev)
	if _, err := c.Token("obs", Query{}); err != ErrEmptyQuery {
		t.Fatalf("empty query = %v", err)
	}
	if _, err := c.Token("obs", Query{{neg("a")}}); err != ErrNoPositiveLiteral {
		t.Fatalf("all-negative conjunction = %v", err)
	}
}

func TestBadVariant(t *testing.T) {
	key, _ := primitives.NewRandomKey()
	if _, err := NewClient(key, NewMemState(), Variant("bogus")); err != ErrBadVariant {
		t.Fatalf("bad variant = %v", err)
	}
}

func TestDuplicateKeywordsDeduplicated(t *testing.T) {
	variants(t, func(t *testing.T, v Variant) {
		c, s := setup(t, v)
		insert(t, c, s, "d1", "w", "w", "w")
		got := run(t, c, s, Query{{pos("w")}})
		if !reflect.DeepEqual(got, []string{"d1"}) {
			t.Fatalf("dedup = %v", got)
		}
	})
}

func TestVariantsAgreeQuick(t *testing.T) {
	// Property: both variants and a plaintext reference evaluator agree on
	// random corpora and random 2-term conjunctive/negated queries.
	key, _ := primitives.NewRandomKey()
	c2, err := NewClient(key, NewMemState(), Variant2Lev)
	if err != nil {
		t.Fatal(err)
	}
	cz, err := NewClient(key, NewMemState(), VariantZMF)
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewServer(kvstore.New(), "obs")
	sz := NewServer(kvstore.New(), "obs")
	ref := make(map[string]map[string]bool) // id -> keyword set
	nextID := 0

	f := func(kwMask uint8, queryA, queryB uint8, negB bool) bool {
		// Insert a doc with 1-4 keywords drawn from a pool of 6.
		var kws []string
		for b := 0; b < 6; b++ {
			if kwMask&(1<<b) != 0 {
				kws = append(kws, fmt.Sprintf("k%d", b))
			}
		}
		if len(kws) == 0 {
			kws = []string{"k0"}
		}
		id := fmt.Sprintf("d%03d", nextID)
		nextID++
		e2, err := c2.Insert("obs", id, kws, SingleShard)
		if err != nil {
			return false
		}
		for _, e := range e2 {
			if err := s2.Insert(*e); err != nil {
				return false
			}
		}
		ez, err := cz.Insert("obs", id, kws, SingleShard)
		if err != nil {
			return false
		}
		for _, e := range ez {
			if err := sz.Insert(*e); err != nil {
				return false
			}
		}
		ref[id] = make(map[string]bool)
		for _, w := range kws {
			ref[id][w] = true
		}

		wa := fmt.Sprintf("k%d", queryA%6)
		wb := fmt.Sprintf("k%d", queryB%6)
		q := Query{{pos(wa), {Keyword: wb, Negated: negB}}}

		var want []string
		for id, set := range ref {
			if set[wa] && set[wb] != negB {
				want = append(want, id)
			}
		}
		sort.Strings(want)

		got2 := runQuiet(c2, s2, q)
		gotz := runQuiet(cz, sz, q)
		return reflect.DeepEqual(got2, want) && reflect.DeepEqual(gotz, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// oracle evaluates q over a plaintext corpus (id -> keywords) and returns
// the matching ids, sorted.
func oracle(docs map[string][]string, q Query) []string {
	var out []string
	for id, kws := range docs {
		has := make(map[string]bool, len(kws))
		for _, w := range kws {
			has[w] = true
		}
		for _, conj := range q {
			match := true
			for _, l := range conj {
				if has[l.Keyword] == l.Negated {
					match = false
					break
				}
			}
			if match {
				out = append(out, id)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// sharedPairQueries anchor on the hot keyword status=final, whose
// conjunctions fan out over its spill buckets and so repeat each pair
// constraint within one Search. A server that shared anything across
// conjunctions other than a pair constraint's id set (a conjunction's
// filtered candidates, say) answers them wrongly.
var sharedPairQueries = []Query{
	// Hot anchor AND NOT a pair keyword.
	{{pos("status=final"), neg("mod=0")}},
	// Two clauses sharing the pair constraint (final, mod=1), negated in
	// the second.
	{{pos("status=final"), pos("mod=1")}, {pos("status=final"), neg("mod=1"), pos("par=0")}},
	// One anchor, two different pair constraints.
	{{pos("status=final"), pos("par=0"), neg("mod=2")}},
}

// hotKeywords are the keywords of the i-th document of a hot
// status=final corpus, as sharedPairQueries expect.
func hotKeywords(i int) []string {
	return []string{"status=final", fmt.Sprintf("seq=%03d", i), fmt.Sprintf("mod=%d", i%3), fmt.Sprintf("par=%d", i%2)}
}

func runQuiet(c *Client, s *Server, q Query) []string {
	tok, err := c.Token("obs", q)
	if err != nil {
		return nil
	}
	vids, err := s.Search(tok)
	if err != nil {
		return nil
	}
	ids, err := c.Resolve("obs", vids)
	if err != nil {
		return nil
	}
	return ids
}

// TestPartitionedMatchesSingleServer drives the sharded placement contract
// directly: the same corpus lands on one server via SingleShard and on
// three servers via a hash of the routing label, and every query — routed
// per conjunction to the shard owning its anchor's label, results merged
// — must agree, like the single-server run, with a plaintext oracle.
func TestPartitionedMatchesSingleServer(t *testing.T) {
	variants(t, func(t *testing.T, v Variant) {
		key, err := primitives.NewRandomKey()
		if err != nil {
			t.Fatal(err)
		}
		single, err := NewClient(key, NewMemState(), v)
		if err != nil {
			t.Fatal(err)
		}
		parted, err := NewClient(key, NewMemState(), v)
		if err != nil {
			t.Fatal(err)
		}
		ss := NewServer(kvstore.New(), "obs")
		shards := []*Server{
			NewServer(kvstore.New(), "obs"),
			NewServer(kvstore.New(), "obs"),
			NewServer(kvstore.New(), "obs"),
		}
		shardOf := func(label string) int {
			h := 0
			for i := 0; i < len(label); i++ {
				h = h*31 + int(label[i])
			}
			if h < 0 {
				h = -h
			}
			return h % len(shards)
		}

		docs := map[string][]string{
			"d1": {"status=final", "code=glucose", "interp=high"},
			"d2": {"status=final", "code=glucose", "interp=normal"},
			"d3": {"status=draft", "code=glucose", "interp=high"},
			"d4": {"status=final", "code=insulin", "interp=high"},
			"d5": {"status=final"},
		}
		for i := 0; i < SpillThreshold*2; i++ { // status=final spills into 3 buckets
			docs[fmt.Sprintf("h%03d", i)] = hotKeywords(i)
		}
		touched := make(map[int]bool)
		for id, kws := range docs {
			insert(t, single, ss, id, kws...)
			groups, err := parted.Insert("obs", id, kws, shardOf)
			if err != nil {
				t.Fatalf("Insert(%s): %v", id, err)
			}
			for s, e := range groups {
				touched[s] = true
				if err := shards[s].Insert(*e); err != nil {
					t.Fatalf("shard %d Insert: %v", s, err)
				}
			}
		}
		if len(touched) < 2 {
			t.Fatalf("entries landed on %d shards — partitioning is not spreading", len(touched))
		}
		if n, _ := parted.Buckets("obs", "status=final"); n != 3 {
			t.Fatalf("Buckets(status=final) = %d, want 3", n)
		}

		runParted := func(q Query) []string {
			tok, err := parted.Token("obs", q)
			if err != nil {
				t.Fatalf("Token: %v", err)
			}
			var lists [][]string
			for s := range shards {
				var sub SearchToken
				for _, ct := range tok.Conjunctions {
					if shardOf(ct.Route) == s {
						sub.Conjunctions = append(sub.Conjunctions, ct)
					}
				}
				if len(sub.Conjunctions) == 0 {
					continue
				}
				vids, err := shards[s].Search(sub)
				if err != nil {
					t.Fatalf("shard %d Search: %v", s, err)
				}
				lists = append(lists, vids)
			}
			merged := make(map[string]bool)
			var union []string
			for _, l := range lists {
				for _, vid := range l {
					if !merged[vid] {
						merged[vid] = true
						union = append(union, vid)
					}
				}
			}
			ids, err := parted.Resolve("obs", union)
			if err != nil {
				t.Fatalf("Resolve: %v", err)
			}
			return ids
		}

		queries := []Query{
			{{pos("code=glucose")}},
			{{pos("status=final"), pos("code=glucose")}},
			{{pos("status=final"), pos("code=glucose"), pos("interp=high")}},
			{{pos("status=final"), neg("interp=high")}},
			{{pos("code=glucose"), pos("interp=high")}, {pos("code=insulin")}},
			{{pos("code=never")}},
			{{pos("status=draft"), pos("code=insulin")}},
		}
		for i, q := range append(queries, sharedPairQueries...) {
			want := oracle(docs, q)
			if got := run(t, single, ss, q); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("query %d: single %v != oracle %v", i, got, want)
			}
			if got := runParted(q); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("query %d: partitioned %v != oracle %v", i, got, want)
			}
		}
	})
}

func TestBucketRouteStableAndScoped(t *testing.T) {
	c, _ := setup(t, Variant2Lev)
	if c.BucketRoute("obs", "w", 0) != c.BucketRoute("obs", "w", 0) {
		t.Fatal("routing label not deterministic")
	}
	if c.BucketRoute("obs", "w", 0) == c.BucketRoute("obs", "x", 0) {
		t.Fatal("distinct keywords share a routing label")
	}
	if c.BucketRoute("obs", "w", 0) == c.BucketRoute("other", "w", 0) {
		t.Fatal("routing label leaks across namespaces")
	}
	if c.BucketRoute("obs", "w", 0) == c.BucketRoute("obs", "w", 1) {
		t.Fatal("distinct spill buckets share a routing label")
	}
}

// TestSpillFansHotKeywordAcrossBuckets drives one keyword past several
// spill thresholds and checks (a) the query fans one ConjToken per
// bucket, each with a distinct route, (b) the union over bucket slices
// equals the full corpus, (c) a cold keyword stays single-bucket, and
// (d) conjunctions repeating a pair constraint within one Search match a
// plaintext oracle.
func TestSpillFansHotKeywordAcrossBuckets(t *testing.T) {
	for _, v := range []Variant{Variant2Lev, VariantZMF} {
		t.Run(string(v), func(t *testing.T) {
			c, s := setup(t, v)
			const docs = SpillThreshold*2 + 5 // 3 buckets
			var want []string
			corpus := make(map[string][]string, docs)
			for i := 0; i < docs; i++ {
				id := fmt.Sprintf("d%03d", i)
				want = append(want, id)
				corpus[id] = hotKeywords(i)
				insert(t, c, s, id, corpus[id]...)
			}
			if n, _ := c.Buckets("obs", "status=final"); n != 3 {
				t.Fatalf("Buckets(hot) = %d, want 3", n)
			}
			if n, _ := c.Buckets("obs", "seq=000"); n != 1 {
				t.Fatalf("Buckets(cold) = %d, want 1", n)
			}
			tok, err := c.Token("obs", Query{{pos("status=final")}})
			if err != nil {
				t.Fatal(err)
			}
			if len(tok.Conjunctions) != 3 {
				t.Fatalf("hot conjunction fanned to %d sub-tokens, want 3", len(tok.Conjunctions))
			}
			routes := make(map[string]bool)
			for _, ct := range tok.Conjunctions {
				routes[ct.Route] = true
			}
			if len(routes) != 3 {
				t.Fatalf("%d distinct routes across 3 buckets", len(routes))
			}
			got := run(t, c, s, Query{{pos("status=final")}})
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("spilled union = %v, want all %d docs", got, docs)
			}
			// A conjunction refines within each bucket slice too.
			got = run(t, c, s, Query{{pos("status=final"), pos(fmt.Sprintf("seq=%03d", docs-1))}})
			if fmt.Sprint(got) != fmt.Sprint([]string{fmt.Sprintf("d%03d", docs-1)}) {
				t.Fatalf("conjunction across spill = %v", got)
			}
			for i, q := range sharedPairQueries {
				if got, want := run(t, c, s, q), oracle(corpus, q); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("shared-pair query %d = %v, want %v", i, got, want)
				}
			}
		})
	}
}

func TestKVStateVersions(t *testing.T) {
	st := NewKVState(kvstore.New())
	if err := st.SetVersion("ns", "d1", 3); err != nil {
		t.Fatal(err)
	}
	v, err := st.Version("ns", "d1")
	if err != nil || v != 3 {
		t.Fatalf("Version = %d, %v", v, err)
	}
	if v, _ := st.Version("ns", "absent"); v != 0 {
		t.Fatalf("Version(absent) = %d", v)
	}
}

func benchInsert(b *testing.B, v Variant) {
	c, s := setup(b, v)
	kws := []string{"a", "b", "c", "d", "e"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groups, err := c.Insert("obs", fmt.Sprintf("d%d", i), kws, SingleShard)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range groups {
			if err := s.Insert(*e); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkInsert2Lev5Keywords(b *testing.B) { benchInsert(b, Variant2Lev) }
func BenchmarkInsertZMF5Keywords(b *testing.B)  { benchInsert(b, VariantZMF) }

func benchConjunction(b *testing.B, v Variant) {
	c, s := setup(b, v)
	for i := 0; i < 500; i++ {
		kws := []string{"common"}
		if i%10 == 0 {
			kws = append(kws, "rare")
		}
		groups, _ := c.Insert("obs", fmt.Sprintf("d%d", i), kws, SingleShard)
		for _, e := range groups {
			s.Insert(*e)
		}
	}
	q := Query{{pos("common"), pos("rare")}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tok, err := c.Token("obs", q)
		if err != nil {
			b.Fatal(err)
		}
		vids, err := s.Search(tok)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Resolve("obs", vids); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConjunction2Lev(b *testing.B) { benchConjunction(b, Variant2Lev) }
func BenchmarkConjunctionZMF(b *testing.B)  { benchConjunction(b, VariantZMF) }

// benchConjunctionSpilled times the server half of a conjunction whose
// anchor spans five spill buckets on one server, so one Search carries
// five conjunctions with the same constraint: for 2Lev, a pair token
// enumerated once per Search; for ZMF (the control), a filter token
// probed per conjunction.
func benchConjunctionSpilled(b *testing.B, v Variant) {
	c, s := setup(b, v)
	for i := 0; i < 4*SpillThreshold+1; i++ {
		kws := []string{"common"}
		if i%4 == 0 {
			kws = append(kws, "tagged")
		}
		insert(b, c, s, fmt.Sprintf("d%d", i), kws...)
	}
	tok, err := c.Token("obs", Query{{pos("common"), pos("tagged")}})
	if err != nil {
		b.Fatal(err)
	}
	if len(tok.Conjunctions) < 4 {
		b.Fatalf("%d conjunctions, want >= 4", len(tok.Conjunctions))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vids, err := s.Search(tok)
		if err != nil {
			b.Fatal(err)
		}
		if len(vids) != SpillThreshold+1 {
			b.Fatalf("%d results, want %d", len(vids), SpillThreshold+1)
		}
	}
}

func BenchmarkConjunctionSpilled2Lev(b *testing.B) { benchConjunctionSpilled(b, Variant2Lev) }
func BenchmarkConjunctionSpilledZMF(b *testing.B)  { benchConjunctionSpilled(b, VariantZMF) }

func TestPairCellsShareSealedPayload(t *testing.T) {
	c, s := setup(t, Variant2Lev)
	groups, err := c.Insert("obs", "doc1", []string{"a", "b", "c"}, SingleShard)
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	g, ok := groups[0]
	if !ok {
		t.Fatal("no shard-0 group")
	}
	if len(g.CrossPacked) == 0 {
		t.Fatal("no packed pair cells")
	}
	cells := 0
	for _, p := range g.CrossPacked {
		cells += p.Count
		if len(p.Shared) == 0 {
			t.Fatal("packed pair entry lacks shared payload")
		}
		if len(p.Nonce) != emm.SharedNonceLen {
			t.Fatalf("nonce len = %d, want %d", len(p.Nonce), emm.SharedNonceLen)
		}
		// Value dedup: each cell ships a fixed-size key wrap, not a
		// replicated sealed payload.
		if p.ValLen != emm.SharedWrapLen {
			t.Fatalf("ValLen = %d, want wrap size %d", p.ValLen, emm.SharedWrapLen)
		}
		if len(p.Vals) != p.Count*emm.SharedWrapLen {
			t.Fatalf("Vals = %d bytes for %d cells, want %d", len(p.Vals), p.Count, p.Count*emm.SharedWrapLen)
		}
	}
	if want := 3; cells != want { // C(3,2) pairs on a single shard
		t.Fatalf("pair cells = %d, want %d", cells, want)
	}
	if err := s.Insert(*g); err != nil {
		t.Fatalf("server Insert: %v", err)
	}
	got := run(t, c, s, Query{{pos("a"), pos("b")}})
	if !reflect.DeepEqual(got, []string{"doc1"}) {
		t.Fatalf("conjunction over shared pair cells = %v, want [doc1]", got)
	}
}

func TestUnpackRejectsMalformedShared(t *testing.T) {
	mk := func(valLen, nonceLen int) PackedEntry {
		return PackedEntry{
			Count:   1,
			AddrLen: 4,
			ValLen:  valLen,
			Addrs:   make([]byte, 4),
			Vals:    make([]byte, valLen),
			Shared:  []byte("sealed"),
			Nonce:   make([]byte, nonceLen),
		}
	}
	if _, err := UnpackEntries([]PackedEntry{mk(emm.SharedWrapLen+1, emm.SharedNonceLen)}); err == nil {
		t.Fatal("UnpackEntries accepted shared entry with non-wrap ValLen")
	}
	if _, err := UnpackEntries([]PackedEntry{mk(emm.SharedWrapLen, emm.SharedNonceLen-1)}); err == nil {
		t.Fatal("UnpackEntries accepted shared entry with short nonce")
	}
	if _, err := UnpackEntries([]PackedEntry{mk(emm.SharedWrapLen, emm.SharedNonceLen)}); err != nil {
		t.Fatalf("UnpackEntries rejected well-formed shared entry: %v", err)
	}
}
