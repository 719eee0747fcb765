// Command cubectl is a small OLAP shell over the viewcube library: it loads
// a CSV relation into a data cube, optionally optimises the materialised
// view element set for a workload, and answers GROUP BY and range-SUM
// queries from the command line.
//
// Usage:
//
//	cubectl -csv sales.csv -measure sales info
//	cubectl -csv sales.csv -measure sales groupby product,region
//	cubectl -csv sales.csv -measure sales range day=d1:d3 product=ale:ale
//	cubectl -csv sales.csv -measure sales -hot product -hot region,day groupby product
//	cubectl -csv sales.csv -measure sales query "SELECT SUM(sales) GROUP BY product WHERE day BETWEEN 'd1' AND 'd5'"
//	cubectl -csv sales.csv -measure sales explain product,region
//	cubectl -csv sales.csv -measure sales trace groupby product,region
//	cubectl -gen 5000 info            (synthetic sales data, no CSV needed)
//
// With -catalog the shell builds every cube of a JSON catalog file and
// scopes commands with -cube/-view, resolving view aliases and rejecting
// excluded members exactly as cubed's HTTP surface would:
//
//	cubectl -catalog catalog.json cubes
//	cubectl -catalog catalog.json -cube sales views
//	cubectl -catalog catalog.json -cube sales -view public groupby region
//	cubectl -catalog catalog.json -cube sales -view aliased trace groupby item
//
// Against a running shard cluster (see `cubed -shard`), -coordinator skips
// the local cube entirely and scatter-gathers over the shard servers:
//
//	cubectl -coordinator localhost:9001,localhost:9002 groupby product
//	cubectl -coordinator localhost:9001,localhost:9002 -partial total
//	cubectl -coordinator localhost:9001,localhost:9002 trace groupby product
//
// -partial tolerates unreachable shards: the answer is exact over the
// shards that responded, and the missing ones are listed.
//
// trace runs the query under a full trace and pretty-prints the span tree;
// against a coordinator the tree is the stitched cluster trace — one leg
// per shard, with each shard's internal spans (plan cache, Haar ops, store
// reads) grafted underneath.
//
// explain prints the engine's plan IR for the view — per-node costs, the
// plan-cache epoch and whether the plan came from the cache — without
// executing a query.
//
// Repeated -hot flags declare anticipated hot views (comma-separated kept
// dimensions); the engine materialises the optimal element set for them
// before answering.
//
// Against a running cubed, -server enables the ingest command: batch rows
// into the daemon's streaming write path over HTTP (see ingest.go):
//
//	cubectl -server http://localhost:8080 ingest 'product=ale,region=east:5'
//	cat rows.jsonl | cubectl -server http://localhost:8080 -cube sales ingest -
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"viewcube"
	"viewcube/internal/catalog"
	"viewcube/internal/cluster"
	"viewcube/internal/obs"
	"viewcube/internal/rescache"
	"viewcube/internal/workload"
)

type hotFlags []string

func (h *hotFlags) String() string     { return strings.Join(*h, ";") }
func (h *hotFlags) Set(v string) error { *h = append(*h, v); return nil }

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cubectl:", err)
		os.Exit(1)
	}
}

func run() error {
	var hot hotFlags
	csvPath := flag.String("csv", "", "CSV file holding the relation")
	measure := flag.String("measure", "sales", "measure column name")
	gen := flag.Int("gen", 0, "generate this many synthetic sales rows instead of reading -csv")
	seed := flag.Int64("seed", 1, "seed for -gen")
	budget := flag.Float64("budget", 1.0, "storage budget as a multiple of the cube volume")
	coordinator := flag.String("coordinator", "", "comma-separated shard addresses; query a cluster instead of loading a cube")
	partial := flag.Bool("partial", false, "with -coordinator: tolerate unreachable shards and report them")
	catalogPath := flag.String("catalog", "", "JSON catalog file; build every declared cube and scope commands with -cube/-view")
	cubeName := flag.String("cube", "", "with -catalog: cube to query (default: the catalog's default cube); with -server: cube to address")
	viewName := flag.String("view", "", "with -catalog: query through this named view")
	serverURL := flag.String("server", "", "base URL of a running cubed (e.g. http://localhost:8080); enables the ingest command")
	noFlush := flag.Bool("noflush", false, "with -server ingest: acknowledge rows without waiting for them to become queryable")
	flag.Var(&hot, "hot", "anticipated hot view: comma-separated kept dimensions (repeatable)")
	flag.Parse()
	if flag.NArg() < 1 {
		return fmt.Errorf("missing command: info | groupby <dims> | total | range <dim=lo:hi>... | query <sql> | topk <dim> <k> | explain <dims> | trace <query> | cubes | views | ingest <rows>")
	}

	if *serverURL != "" {
		if flag.Arg(0) != "ingest" {
			return fmt.Errorf("-server only supports the ingest command, got %q", flag.Arg(0))
		}
		return runServerIngest(*serverURL, *cubeName, !*noFlush, flag.Args()[1:])
	}
	if flag.Arg(0) == "ingest" {
		return fmt.Errorf("ingest needs -server <url> naming a running cubed")
	}
	if *coordinator != "" {
		return runCluster(*coordinator, *partial, flag.Arg(0), flag.Args()[1:])
	}
	if *catalogPath != "" {
		return runCatalogShell(*catalogPath, *cubeName, *viewName, hot, flag.Arg(0), flag.Args()[1:])
	}
	if cmd := flag.Arg(0); cmd == "cubes" || cmd == "views" {
		return fmt.Errorf("%q needs -catalog <file>", cmd)
	}

	cube, err := loadCube(*csvPath, *measure, *gen, *seed)
	if err != nil {
		return err
	}
	eng, err := cube.NewEngine(viewcube.EngineOptions{
		StorageBudget: int(*budget * float64(cube.Volume())),
	})
	if err != nil {
		return err
	}
	if len(hot) > 0 {
		w := cube.NewWorkload()
		for _, h := range hot {
			keep := splitList(h)
			if err := w.AddViewKeeping(1, keep...); err != nil {
				return err
			}
		}
		if err := eng.Optimize(w); err != nil {
			return err
		}
		fmt.Printf("optimized: %d elements materialised, %d cells (budget %d)\n",
			eng.MaterializedElements(), eng.StorageCells(), int(*budget*float64(cube.Volume())))
	}

	cmd, args := flag.Arg(0), flag.Args()[1:]
	switch cmd {
	case "info":
		return info(cube, eng)
	case "total":
		t, err := eng.Total()
		if err != nil {
			return err
		}
		fmt.Printf("total(%s) = %g\n", *measure, t)
		return nil
	case "groupby":
		if len(args) != 1 {
			return fmt.Errorf("usage: groupby dim1,dim2,...")
		}
		return groupBy(eng, splitList(args[0]))
	case "range":
		return rangeSum(eng, args)
	case "query":
		if len(args) != 1 {
			return fmt.Errorf("usage: query 'SELECT SUM(m) GROUP BY dim WHERE ...'")
		}
		return runQuery(eng, args[0])
	case "topk":
		if len(args) != 2 {
			return fmt.Errorf("usage: topk <dim> <k>")
		}
		k, err := strconv.Atoi(args[1])
		if err != nil {
			return fmt.Errorf("bad k %q: %w", args[1], err)
		}
		return topK(eng, args[0], k)
	case "trace":
		return runTrace(eng, args)
	case "explain":
		if len(args) != 1 {
			return fmt.Errorf("usage: explain dim1,dim2,...")
		}
		// The text comes from the engine's own planner, so it is the exact
		// plan IR (with per-node costs) a groupby over the same dimensions
		// would execute — and the header reports epoch and cache status.
		text, err := eng.ExplainGroupBy(splitList(args[0])...)
		if err != nil {
			return err
		}
		fmt.Print(text)
		pc := eng.PlanCacheStats()
		fmt.Printf("plan cache: %d hits, %d misses, %d invalidations (epoch %d, %d cached plans)\n",
			pc.Hits, pc.Misses, pc.Invalidations, pc.Epoch, pc.Entries)
		return nil
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func loadCube(csvPath, measure string, gen int, seed int64) (*viewcube.Cube, error) {
	if gen > 0 {
		tbl, err := workload.SalesTable(rand.New(rand.NewSource(seed)), 50, 8, 60, gen)
		if err != nil {
			return nil, err
		}
		return viewcube.FromTable(tbl)
	}
	if csvPath == "" {
		return nil, fmt.Errorf("need -csv <file> or -gen <rows>")
	}
	f, err := os.Open(csvPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return viewcube.Load(f, measure)
}

func splitList(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func info(cube *viewcube.Cube, eng *viewcube.Engine) error {
	fmt.Printf("dimensions: %v\n", cube.Dimensions())
	fmt.Printf("shape:      %v (%d cells)\n", cube.Shape(), cube.Volume())
	fmt.Printf("total:      %g\n", cube.Total())
	fmt.Printf("views:      %d aggregated views\n", len(cube.AllViews()))
	fmt.Printf("stored:     %d elements, %d cells\n", eng.MaterializedElements(), eng.StorageCells())
	return nil
}

func groupBy(eng *viewcube.Engine, keep []string) error {
	v, err := eng.GroupBy(keep...)
	if err != nil {
		return err
	}
	groups, err := v.Groups()
	if err != nil {
		return err
	}
	printGroups(groups)
	fmt.Printf("(%d groups; plan cost %d ops)\n", len(groups), eng.Stats().LastPlanCost)
	return nil
}

func printGroups(groups map[string]float64) {
	for _, k := range viewcube.SortedGroupKeys(groups) {
		label := strings.Join(viewcube.SplitGroupKey(k), " / ")
		if label == "" {
			label = "(all)"
		}
		fmt.Printf("%-40s %12g\n", label, groups[k])
	}
}

func parseRanges(specs []string) (map[string]viewcube.ValueRange, error) {
	ranges := make(map[string]viewcube.ValueRange)
	for _, spec := range specs {
		dim, bounds, ok := strings.Cut(spec, "=")
		if !ok {
			return nil, fmt.Errorf("bad range %q, want dim=lo:hi", spec)
		}
		lo, hi, ok := strings.Cut(bounds, ":")
		if !ok {
			return nil, fmt.Errorf("bad range %q, want dim=lo:hi", spec)
		}
		ranges[dim] = viewcube.ValueRange{Lo: lo, Hi: hi}
	}
	return ranges, nil
}

func rangeSum(eng *viewcube.Engine, specs []string) error {
	ranges, err := parseRanges(specs)
	if err != nil {
		return err
	}
	got, err := eng.RangeSum(ranges)
	if err != nil {
		return err
	}
	fmt.Printf("range sum = %g\n", got)
	return nil
}

func runQuery(eng *viewcube.Engine, sql string) error {
	res, err := eng.Query(sql)
	if err != nil {
		return err
	}
	printResult(res)
	return nil
}

func printResult(res *viewcube.QueryResult) {
	for _, col := range res.Columns {
		fmt.Printf("%-24s", col)
	}
	fmt.Println()
	for _, row := range res.Rows {
		for _, k := range row.Key {
			fmt.Printf("%-24s", k)
		}
		for _, v := range row.Values {
			fmt.Printf("%-24g", v)
		}
		fmt.Println()
	}
	fmt.Printf("(%d rows)\n", len(res.Rows))
}

// runTrace executes one query under a trace and pretty-prints the span
// tree — an EXPLAIN ANALYZE for the assembly engine.
func runTrace(eng *viewcube.Engine, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: trace groupby <dims> | trace total | trace range <dim=lo:hi>... | trace query <sql>")
	}
	var (
		tr  *viewcube.QueryTrace
		err error
	)
	switch args[0] {
	case "groupby":
		if len(args) != 2 {
			return fmt.Errorf("usage: trace groupby dim1,dim2,...")
		}
		_, tr, err = eng.TraceGroupBy(splitList(args[1])...)
	case "total":
		_, tr, err = eng.TraceTotal()
	case "range":
		ranges, rerr := parseRanges(args[1:])
		if rerr != nil {
			return rerr
		}
		_, tr, err = eng.TraceRangeSum(ranges)
	case "query":
		if len(args) != 2 {
			return fmt.Errorf("usage: trace query 'SELECT SUM(m) GROUP BY dim ...'")
		}
		_, tr, err = eng.TraceQuery(args[1])
	default:
		return fmt.Errorf("cannot trace %q (use groupby, total, range or query)", args[0])
	}
	if err != nil {
		return err
	}
	fmt.Print(tr)
	summary := fmt.Sprintf("trace %s: %d ops, %d cells read%s", tr.TraceID(), tr.Ops(), tr.CellsRead(), resultCacheNote(tr))
	// A measure-vector execution annotates its spans with the component
	// width and aggregate kind; surface them so AVG/VAR traces are
	// distinguishable from plain SUM at a glance.
	if tree := tr.Tree(); tree != nil {
		if w := tree.MaxAttr("measure_width"); w > 1 {
			kind := viewcube.AggKind(tree.MaxAttr("agg_kind"))
			summary += fmt.Sprintf(" (agg %s, width %d)", kind, w)
		}
	}
	fmt.Println(summary)
	return nil
}

// runCluster answers groupby/total/range by scatter-gather over a running
// shard tier instead of a local engine. With partial, unreachable shards
// are dropped from the (still exact) merge and reported.
func runCluster(addrs string, partial bool, cmd string, args []string) error {
	// Shards are comma-separated; replicas of one shard ride pipe-separated
	// after the primary, exactly as cubed's -coordinator flag accepts them.
	var shards []cluster.Shard
	for _, one := range strings.Split(addrs, ",") {
		if one = strings.TrimSpace(one); one == "" {
			continue
		}
		copies := strings.Split(one, "|")
		addr := strings.TrimSpace(copies[0])
		if addr == "" {
			continue
		}
		sh := cluster.Shard{Name: addr, Client: cluster.DialShard(addr, 2*time.Second)}
		for _, rep := range copies[1:] {
			if rep = strings.TrimSpace(rep); rep != "" {
				sh.Replicas = append(sh.Replicas, cluster.DialShard(rep, 2*time.Second))
			}
		}
		shards = append(shards, sh)
	}
	coord, err := cluster.NewCoordinator(shards, cluster.Options{})
	if err != nil {
		return err
	}
	defer coord.Close()
	ctx := context.Background()

	reportPartial := func(pr *cluster.PartialResult) {
		if pr != nil && !pr.Complete() {
			fmt.Printf("PARTIAL: missing shards %s\n", strings.Join(pr.Missing, ", "))
		}
	}
	switch cmd {
	case "groupby":
		if len(args) != 1 {
			return fmt.Errorf("usage: groupby dim1,dim2,...")
		}
		var (
			groups map[string]float64
			pr     *cluster.PartialResult
		)
		if partial {
			groups, pr, err = coord.GroupByPartial(ctx, splitList(args[0])...)
		} else {
			groups, err = coord.GroupBy(splitList(args[0])...)
		}
		if err != nil {
			return err
		}
		for _, k := range viewcube.SortedGroupKeys(groups) {
			label := strings.Join(viewcube.SplitGroupKey(k), " / ")
			if label == "" {
				label = "(all)"
			}
			fmt.Printf("%-40s %12g\n", label, groups[k])
		}
		fmt.Printf("(%d groups over %d shards)\n", len(groups), len(shards))
		reportPartial(pr)
		return nil
	case "total":
		var (
			sum float64
			pr  *cluster.PartialResult
		)
		if partial {
			sum, pr, err = coord.TotalPartial(ctx)
		} else {
			sum, err = coord.Total()
		}
		if err != nil {
			return err
		}
		fmt.Printf("total = %g\n", sum)
		reportPartial(pr)
		return nil
	case "range":
		ranges, err := parseRanges(args)
		if err != nil {
			return err
		}
		var (
			sum float64
			pr  *cluster.PartialResult
		)
		if partial {
			sum, pr, err = coord.RangeSumPartial(ctx, ranges)
		} else {
			sum, err = coord.RangeSum(ranges)
		}
		if err != nil {
			return err
		}
		fmt.Printf("range sum = %g\n", sum)
		reportPartial(pr)
		return nil
	case "trace":
		if len(args) < 1 {
			return fmt.Errorf("usage: trace groupby <dims> | trace total | trace range <dim=lo:hi>...")
		}
		var (
			pr *cluster.PartialResult
			tr *obs.Trace
		)
		switch args[0] {
		case "groupby":
			if len(args) != 2 {
				return fmt.Errorf("usage: trace groupby dim1,dim2,...")
			}
			_, pr, tr, err = coord.TraceGroupBy(ctx, splitList(args[1])...)
		case "total":
			_, pr, tr, err = coord.TraceTotal(ctx)
		case "range":
			ranges, rerr := parseRanges(args[1:])
			if rerr != nil {
				return rerr
			}
			_, pr, tr, err = coord.TraceRangeSum(ctx, ranges)
		default:
			return fmt.Errorf("cannot trace %q against a coordinator (use groupby, total or range)", args[0])
		}
		if err != nil {
			return err
		}
		fmt.Print(tr)
		tree := tr.Tree()
		fmt.Printf("trace %s: %d ops over %d shards\n",
			obs.FormatTraceID(tr.ID()), tree.SumAttr("ops"), len(shards))
		reportPartial(pr)
		return nil
	default:
		return fmt.Errorf("command %q is not available with -coordinator (use groupby, total, range or trace)", cmd)
	}
}

func topK(eng *viewcube.Engine, dim string, k int) error {
	v, err := eng.GroupBy(dim)
	if err != nil {
		return err
	}
	top, err := v.TopK(k)
	if err != nil {
		return err
	}
	for i, gv := range top {
		fmt.Printf("%2d. %-32s %12g\n", i+1, gv.Key, gv.Value)
	}
	return nil
}

// runCatalogShell answers commands against a locally built catalog: every
// cube of the file is loaded into a registry and commands are scoped by
// -cube/-view through a lease, so aliases resolve and excluded members are
// rejected exactly as cubed's HTTP surface would.
func runCatalogShell(path, cubeName, viewName string, hot hotFlags, cmd string, args []string) error {
	f, err := catalog.LoadFile(path)
	if err != nil {
		return err
	}
	reg := catalog.NewRegistry()
	// The shell serves through the same cached read path as cubed, so traced
	// queries carry the result_cache label the server's sampled traces do.
	reg.EnableResultCache(rescache.Options{})
	if err := f.Build(reg, filepath.Dir(path)); err != nil {
		return err
	}

	switch cmd {
	case "cubes":
		for _, cs := range reg.Cubes() {
			mark := " "
			if cs.Default {
				mark = "*"
			}
			line := fmt.Sprintf("%s %-16s %-8s epoch %d", mark, cs.Name, cs.State, cs.Epoch)
			if cs.Info != nil {
				line += fmt.Sprintf("  dims %v  measure %s", cs.Info.Dimensions, cs.Info.Measure)
			}
			if len(cs.Views) > 0 {
				line += "  views " + strings.Join(cs.Views, ",")
			}
			fmt.Println(line)
		}
		return nil
	case "views":
		views, err := reg.Views(cubeName)
		if err != nil {
			return err
		}
		if len(views) == 0 {
			fmt.Println("(no views)")
			return nil
		}
		for _, vs := range views {
			members := make([]string, 0, len(vs.Members))
			for _, m := range vs.Members {
				if m.Name == m.Dimension {
					members = append(members, m.Name)
				} else {
					members = append(members, m.Name+"->"+m.Dimension)
				}
			}
			line := fmt.Sprintf("%-16s cube %-12s members %s", vs.Name, vs.Cube, strings.Join(members, ","))
			if len(vs.Measures) > 0 {
				line += "  measures " + strings.Join(vs.Measures, ",")
			}
			fmt.Println(line)
		}
		return nil
	}

	lease, err := reg.Acquire(cubeName, viewName)
	if err != nil {
		return err
	}
	defer lease.Release()
	h, v := lease.Handle, lease.View

	if len(hot) > 0 {
		hws := make([]catalog.HotView, 0, len(hot))
		for _, spec := range hot {
			keep, err := v.ResolveKeep(splitList(spec))
			if err != nil {
				return err
			}
			hws = append(hws, catalog.HotView{Keep: keep, Freq: 1})
		}
		if err := h.Optimize(hws); err != nil {
			return err
		}
		st := h.Stats()
		fmt.Printf("optimized: %d elements materialised, %d cells\n",
			st.MaterializedElements, st.StorageCells)
	}

	switch cmd {
	case "info":
		return catalogInfo(lease)
	case "total":
		groups, err := handleGroups(h)
		if err != nil {
			return err
		}
		var sum float64
		for _, g := range groups {
			sum += g
		}
		fmt.Printf("total(%s) = %g\n", h.Info().Measure, sum)
		return nil
	case "groupby":
		if len(args) != 1 {
			return fmt.Errorf("usage: groupby dim1,dim2,...")
		}
		keep, err := v.ResolveKeep(splitList(args[0]))
		if err != nil {
			return err
		}
		groups, err := handleGroups(h, keep...)
		if err != nil {
			return err
		}
		printGroups(groups)
		fmt.Printf("(%d groups; plan cost %d ops)\n", len(groups), h.Stats().Engine.LastPlanCost)
		return nil
	case "range":
		ranges, err := parseRanges(args)
		if err != nil {
			return err
		}
		resolved, err := v.ResolveRanges(ranges)
		if err != nil {
			return err
		}
		got, _, err := h.RangeSum(false, resolved)
		if err != nil {
			return err
		}
		fmt.Printf("range sum = %g\n", got)
		return nil
	case "query":
		if len(args) != 1 {
			return fmt.Errorf("usage: query 'SELECT SUM(m) GROUP BY dim WHERE ...'")
		}
		sql, err := v.RewriteSQL(args[0])
		if err != nil {
			return err
		}
		rows, _, err := h.Query(false, sql)
		if err != nil {
			return err
		}
		res, err := rows.QueryResult()
		if err != nil {
			return err
		}
		res.Columns = v.RewriteColumns(res.Columns)
		printResult(res)
		return nil
	case "topk":
		if len(args) != 2 {
			return fmt.Errorf("usage: topk <dim> <k>")
		}
		k, err := strconv.Atoi(args[1])
		if err != nil {
			return fmt.Errorf("bad k %q: %w", args[1], err)
		}
		keep, err := v.ResolveKeep([]string{args[0]})
		if err != nil {
			return err
		}
		groups, err := handleGroups(h, keep...)
		if err != nil {
			return err
		}
		printTopK(groups, k)
		return nil
	case "explain":
		if len(args) != 1 {
			return fmt.Errorf("usage: explain dim1,dim2,...")
		}
		keep, err := v.ResolveKeep(splitList(args[0]))
		if err != nil {
			return err
		}
		text, err := h.ExplainGroupBy(keep...)
		if err != nil {
			return err
		}
		fmt.Print(text)
		pc := h.PlanCacheStats()
		fmt.Printf("plan cache: %d hits, %d misses, %d invalidations (epoch %d, %d cached plans)\n",
			pc.Hits, pc.Misses, pc.Invalidations, pc.Epoch, pc.Entries)
		return nil
	case "trace":
		return runCatalogTrace(lease, args)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// handleGroups is a handle's group-by in the map form the printers take.
func handleGroups(h catalog.CubeHandle, keep ...string) (map[string]float64, error) {
	res, _, err := h.GroupBy(false, keep...)
	if err != nil {
		return nil, err
	}
	return res.Groups()
}

func catalogInfo(lease *catalog.Lease) error {
	info := lease.Handle.Info()
	if v := lease.View; v != nil {
		dims := make([]string, 0, len(info.Dimensions))
		for _, d := range info.Dimensions {
			if name, ok := v.ExposedName(d); ok {
				dims = append(dims, name)
			}
		}
		info.Dimensions = dims
	}
	fmt.Printf("cube:       %s (epoch %d)\n", lease.Cube, lease.Epoch)
	if lease.View != nil {
		fmt.Printf("view:       %s\n", lease.View.Name())
	}
	fmt.Printf("dimensions: %v\n", info.Dimensions)
	fmt.Printf("shape:      %v (%d cells)\n", info.Shape, info.Volume)
	fmt.Printf("measure:    %s\n", info.Measure)
	st := lease.Handle.Stats()
	fmt.Printf("stored:     %d elements, %d cells\n", st.MaterializedElements, st.StorageCells)
	return nil
}

func printTopK(groups map[string]float64, k int) {
	keys := viewcube.SortedGroupKeys(groups)
	sort.SliceStable(keys, func(i, j int) bool { return groups[keys[i]] > groups[keys[j]] })
	if k > len(keys) {
		k = len(keys)
	}
	for i, key := range keys[:k] {
		label := strings.Join(viewcube.SplitGroupKey(key), " / ")
		fmt.Printf("%2d. %-32s %12g\n", i+1, label, groups[key])
	}
}

// runCatalogTrace traces one query through a catalog lease and stamps the
// cube/view identity on the trace, so the printed span tree carries the
// same labels the server's sampled traces do.
func runCatalogTrace(lease *catalog.Lease, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: trace groupby <dims> | trace total | trace range <dim=lo:hi>... | trace query <sql>")
	}
	v := lease.View
	var (
		tr  *viewcube.QueryTrace
		err error
	)
	switch args[0] {
	case "groupby":
		if len(args) != 2 {
			return fmt.Errorf("usage: trace groupby dim1,dim2,...")
		}
		keep, rerr := v.ResolveKeep(splitList(args[1]))
		if rerr != nil {
			return rerr
		}
		_, tr, _, err = lease.ServeGroupBy(true, keep...)
	case "total":
		_, tr, _, err = lease.ServeGroupBy(true)
	case "range":
		ranges, rerr := parseRanges(args[1:])
		if rerr != nil {
			return rerr
		}
		resolved, rerr := v.ResolveRanges(ranges)
		if rerr != nil {
			return rerr
		}
		_, tr, _, err = lease.ServeRangeSum(true, resolved)
	case "query":
		if len(args) != 2 {
			return fmt.Errorf("usage: trace query 'SELECT SUM(m) GROUP BY dim ...'")
		}
		sql, rerr := v.RewriteSQL(args[1])
		if rerr != nil {
			return rerr
		}
		_, tr, _, err = lease.ServeQuery(true, sql)
	default:
		return fmt.Errorf("cannot trace %q (use groupby, total, range or query)", args[0])
	}
	if err != nil {
		return err
	}
	if tr == nil {
		fmt.Println("(query answered; this cube type does not produce traces)")
		return nil
	}
	tr.SetLabel("cube", lease.Cube)
	if v != nil {
		tr.SetLabel("view", v.Name())
	}
	fmt.Print(tr)
	scope := "cube " + lease.Cube
	if v != nil {
		scope += ", view " + v.Name()
	}
	fmt.Printf("trace %s: %d ops, %d cells read%s [%s]\n",
		tr.TraceID(), tr.Ops(), tr.CellsRead(), resultCacheNote(tr), scope)
	return nil
}

// resultCacheNote renders the trace's result_cache label (hit on a query
// answered without executing, miss on a computing execution) for the
// one-line summary; empty when the serving path had no cache.
func resultCacheNote(tr *viewcube.QueryTrace) string {
	tree := tr.Tree()
	if tree == nil || tree.Labels["result_cache"] == "" {
		return ""
	}
	return ", result cache " + tree.Labels["result_cache"]
}
