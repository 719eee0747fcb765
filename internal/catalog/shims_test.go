package catalog

import (
	"encoding/json"
	"strings"

	"viewcube"
	"viewcube/internal/relation"
)

// The reads below this package's tests were written against answered maps
// and row tables; handles now answer a columnar viewcube.Result and leases
// the encoded response body. These shims turn either back into the old
// form at the call site, so no assertion had to change.

// groupsOf is the map form of a CubeHandle.GroupBy answer.
func groupsOf(res *viewcube.Result, tr *viewcube.QueryTrace, err error) (map[string]float64, *viewcube.QueryTrace, error) {
	if err != nil {
		return nil, tr, err
	}
	g, err := res.Groups()
	return g, tr, err
}

// rowsOf is the row-table form of a CubeHandle.Query answer.
func rowsOf(res *viewcube.Result, tr *viewcube.QueryTrace, err error) (*viewcube.QueryResult, *viewcube.QueryTrace, error) {
	if err != nil {
		return nil, tr, err
	}
	q, err := res.QueryResult()
	return q, tr, err
}

// servedGroups decodes a Lease.ServeGroupBy body back into the library's
// map form: the "/" the wire joins composite keys with becomes the group-key
// separator again (no fixture value contains a "/").
func servedGroups(a Answer, tr *viewcube.QueryTrace, hit *bool, err error) (map[string]float64, *viewcube.QueryTrace, *bool, error) {
	if err != nil {
		return nil, tr, hit, err
	}
	var wire map[string]float64
	if err := json.Unmarshal(a.Body, &wire); err != nil {
		return nil, tr, hit, err
	}
	out := make(map[string]float64, len(wire))
	for k, v := range wire {
		out[relation.GroupKey(strings.Split(k, "/")...)] = v
	}
	return out, tr, hit, nil
}
