// Command cubectl is a thin HTTP client of a running cubed, in any of its
// modes: single cube, catalog or coordinator. Each subcommand is one
// request, and its response body goes to stdout unchanged; trace instead
// renders the span tree the response carries. A non-2xx answer prints the
// server's error to stderr and exits 1.
//
// Usage:
//
//	cubectl [-server URL] [-cube NAME [-view NAME]] [-partial] [-noflush] COMMAND [ARGS]
//
//	groupby [dim,dim...]       GET  /groupby?keep=dim,dim...
//	range [dim=lo:hi...]       GET  /range?dim=lo:hi...  (no ranges: the total)
//	query 'SELECT ...'         POST /query {"sql": ...}
//	explain [dim,dim...]       GET  /explain?keep=dim,dim...
//	trace groupby|range|query  the same request with trace=1
//	ingest ROW... | ingest -   POST /ingest (rows as in ingest.go)
//
// For example:
//
//	cubectl groupby product,region
//	cubectl -cube sales -view menu trace groupby item
//	cubectl -server http://localhost:8090 -partial range day=day-000:day-013
//	cubectl ingest 'product=ale,region=east:5'
//
// With -cube a request goes to /cubes/{cube}/..., and with -view as well to
// /cubes/{cube}/views/{view}/...; without them it goes to the root route,
// which a coordinator serves too. -partial adds partial=1, so a coordinator
// answers over the shards that are up and names the missing ones.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"viewcube/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cubectl:", err)
		os.Exit(1)
	}
}

const usage = "usage: cubectl [flags] groupby [dims] | range [dim=lo:hi...] | query <sql> | explain [dims] | trace groupby|range|query ... | ingest <rows>|-"

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("cubectl", flag.ContinueOnError)
	server := fs.String("server", "http://localhost:8080", "base URL of a running cubed")
	cube := fs.String("cube", "", "cube to address (default: the server's root routes)")
	view := fs.String("view", "", "with -cube: query through this named view")
	partial := fs.Bool("partial", false, "ask a coordinator to answer over the shards that are up")
	noFlush := fs.Bool("noflush", false, "ingest: acknowledge rows without waiting for them to become queryable")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return errors.New(usage)
	}
	if *view != "" && *cube == "" {
		return errors.New("-view needs -cube")
	}
	cmd, rest := fs.Arg(0), fs.Args()[1:]
	traced := cmd == "trace"
	if traced {
		if len(rest) < 1 || rest[0] == "explain" || rest[0] == "ingest" {
			return errors.New("usage: cubectl trace groupby|range|query ...")
		}
		cmd, rest = rest[0], rest[1:]
	}
	req, err := newRequest(cmd, rest, !*noFlush, stdin)
	if err != nil {
		return err
	}
	if traced {
		req.query.Set("trace", "1")
	}
	if *partial {
		req.query.Set("partial", "1")
	}
	prefix := strings.TrimRight(*server, "/")
	if *cube != "" {
		prefix += "/cubes/" + url.PathEscape(*cube)
		if *view != "" {
			prefix += "/views/" + url.PathEscape(*view)
		}
	}
	body, err := req.do(prefix)
	if err != nil {
		return err
	}
	if traced {
		return printTrace(stdout, body)
	}
	_, err = stdout.Write(body)
	return err
}

// request is one call to cubed: a method and route under the scope prefix,
// its query parameters and, for a POST, a JSON body.
type request struct {
	method, route string
	query         url.Values
	body          any
}

func newRequest(cmd string, args []string, flush bool, stdin io.Reader) (*request, error) {
	req := &request{method: http.MethodGet, route: "/" + cmd, query: url.Values{}}
	switch cmd {
	case "groupby", "explain":
		if len(args) > 1 {
			return nil, fmt.Errorf("usage: %s [dim,dim...]", cmd)
		}
		if len(args) == 1 && args[0] != "" {
			req.query.Set("keep", args[0])
		}
	case "range":
		for _, spec := range args {
			dim, bounds, ok := strings.Cut(spec, "=")
			if !ok || dim == "" {
				return nil, fmt.Errorf("bad range %q, want dim=lo:hi", spec)
			}
			req.query.Set(dim, bounds)
		}
	case "query":
		if len(args) != 1 {
			return nil, errors.New("usage: query 'SELECT SUM(m) GROUP BY dim WHERE ...'")
		}
		req.method, req.body = http.MethodPost, map[string]string{"sql": args[0]}
	case "ingest":
		rows, err := readIngestRows(args, stdin)
		if err != nil {
			return nil, err
		}
		if len(rows) == 0 {
			return nil, errors.New("no rows to ingest (give dim=val,...:delta arguments or JSON lines on stdin)")
		}
		req.method, req.body = http.MethodPost, map[string]any{"rows": rows, "flush": flush}
	default:
		return nil, fmt.Errorf("unknown command %q\n%s", cmd, usage)
	}
	return req, nil
}

// do sends the request and returns the response body of a 2xx answer; any
// other status becomes an error carrying the server's "error" text.
func (r *request) do(prefix string) ([]byte, error) {
	target := prefix + r.route
	if len(r.query) > 0 {
		target += "?" + r.query.Encode()
	}
	var payload io.Reader
	if r.body != nil {
		enc, err := json.Marshal(r.body)
		if err != nil {
			return nil, err
		}
		payload = bytes.NewReader(enc)
	}
	hreq, err := http.NewRequest(r.method, target, payload)
	if err != nil {
		return nil, err
	}
	// A coordinator retries a dead shard with backoff before it answers, so
	// the bound is generous.
	resp, err := (&http.Client{Timeout: time.Minute}).Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &e) != nil || e.Error == "" {
			e.Error = strings.TrimSpace(string(body)) // not cubed's JSON error shape
		}
		return nil, fmt.Errorf("%s: %s", resp.Status, e.Error)
	}
	return body, nil
}

// printTrace renders a traced response's span tree and one summary line:
// the root span, its ops and cells read, the result-cache outcome, the
// cube and view labels, and any shards a partial answer is missing.
func printTrace(w io.Writer, body []byte) error {
	var resp struct {
		Trace   *obs.Span `json:"trace"`
		Partial *struct {
			Missing []string `json:"missing"`
		} `json:"partial"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding traced response: %w", err)
	}
	tree := resp.Trace
	if tree == nil {
		return errors.New("the response carries no trace")
	}
	summary := fmt.Sprintf("trace %s: %d ops, %d cells read", tree.Name, tree.SumAttr("ops"), tree.SumAttr("cells"))
	if rc := tree.Label("result_cache"); rc != "" {
		summary += ", result cache " + rc
	}
	if c, v := tree.Labels["cube"], tree.Labels["view"]; v != "" {
		summary += " [cube " + c + ", view " + v + "]"
	} else if c != "" {
		summary += " [cube " + c + "]"
	}
	if p := resp.Partial; p != nil && len(p.Missing) > 0 {
		summary += "; partial, missing " + strings.Join(p.Missing, ", ")
	}
	_, err := fmt.Fprintf(w, "%s%s\n", obs.RenderNode(tree), summary)
	return err
}
