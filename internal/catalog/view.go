package catalog

import (
	"encoding/json"
	"fmt"
	"sort"

	"viewcube"
	"viewcube/internal/query"
)

// MemberSpec selects one cube member (a dimension) for a view, optionally
// renaming it. In catalog files a member is either a bare string ("region")
// or an object ({"name": "region", "alias": "territory"}).
type MemberSpec struct {
	Name  string `json:"name"`
	Alias string `json:"alias,omitempty"`
}

// UnmarshalJSON accepts both the bare-string and the object form.
func (m *MemberSpec) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		return json.Unmarshal(b, &m.Name)
	}
	type raw MemberSpec
	return json.Unmarshal(b, (*raw)(m))
}

// MarshalJSON renders the compact form when no alias is set.
func (m MemberSpec) MarshalJSON() ([]byte, error) {
	if m.Alias == "" {
		return json.Marshal(m.Name)
	}
	type raw MemberSpec
	return json.Marshal(raw(m))
}

// IncludeList is a view's member selection: either every member ("*") or an
// explicit list of MemberSpecs.
type IncludeList struct {
	Star    bool
	Members []MemberSpec
}

// UnmarshalJSON accepts "*" or a member array; null, like an absent list,
// includes nothing.
func (il *IncludeList) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		return nil
	}
	var star string
	if err := json.Unmarshal(b, &star); err == nil {
		if star != "*" {
			return fmt.Errorf(`catalog: includes must be "*" or a member list, got %q`, star)
		}
		il.Star, il.Members = true, nil
		return nil
	}
	il.Star = false
	return json.Unmarshal(b, &il.Members)
}

// MarshalJSON renders "*" or the member array.
func (il IncludeList) MarshalJSON() ([]byte, error) {
	if il.Star {
		return json.Marshal("*")
	}
	return json.Marshal(il.Members)
}

// All is the IncludeList that exposes every member.
func All() IncludeList { return IncludeList{Star: true} }

// Include builds an explicit IncludeList from bare member names.
func Include(names ...string) IncludeList {
	il := IncludeList{Members: make([]MemberSpec, len(names))}
	for i, n := range names {
		il.Members[i] = MemberSpec{Name: n}
	}
	return il
}

// ViewSpec declares one named, consumer-facing view over a cube: which
// members it exposes (includes/excludes/"*"), what they are called
// (aliases) and which measures queries through the view may aggregate
// (empty = all of the cube's measures). Specs are declarative and
// serializable; they compile into a View against a concrete cube schema at
// registration or (re)load time.
type ViewSpec struct {
	Name     string      `json:"name"`
	Cube     string      `json:"cube"`
	Includes IncludeList `json:"includes"`
	Excludes []string    `json:"excludes,omitempty"`
	Measures []string    `json:"measures,omitempty"`
}

// Member is one exposed view member and the cube dimension it resolves to.
type Member struct {
	Name      string `json:"name"`
	Dimension string `json:"dimension"`
}

// View is a compiled ViewSpec: the member map validated against a cube's
// dimensions, ready to rewrite incoming queries. A nil *View resolves
// everything to itself (the raw-cube surface), so serving code calls
// resolution methods unconditionally.
type View struct {
	name     string
	cube     string
	members  map[string]string // exposed name -> underlying dimension
	byDim    map[string]string // underlying dimension -> exposed name
	order    []string          // exposed names, declaration order
	measures map[string]bool   // nil = every measure allowed
	spec     ViewSpec
}

// compileView validates a spec against the cube schema and builds the
// member maps. Every include, exclude and measure must name something the
// cube actually has — a catalog typo fails at load time, not at query time.
func compileView(spec ViewSpec, info Info) (*View, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("catalog: view needs a name")
	}
	dims := make(map[string]bool, len(info.Dimensions))
	for _, d := range info.Dimensions {
		dims[d] = true
	}
	excluded := make(map[string]bool, len(spec.Excludes))
	for _, x := range spec.Excludes {
		if !dims[x] {
			return nil, fmt.Errorf("catalog: view %q excludes unknown dimension %q (cube %q has %v)",
				spec.Name, x, spec.Cube, info.Dimensions)
		}
		excluded[x] = true
	}
	v := &View{
		name:    spec.Name,
		cube:    spec.Cube,
		members: make(map[string]string),
		byDim:   make(map[string]string),
		spec:    spec,
	}
	add := func(exposed, dim string) error {
		if _, dup := v.members[exposed]; dup {
			return fmt.Errorf("catalog: view %q exposes member %q twice", spec.Name, exposed)
		}
		v.members[exposed] = dim
		v.byDim[dim] = exposed
		v.order = append(v.order, exposed)
		return nil
	}
	if spec.Includes.Star {
		for _, d := range info.Dimensions {
			if excluded[d] {
				continue
			}
			if err := add(d, d); err != nil {
				return nil, err
			}
		}
	} else {
		if len(spec.Includes.Members) == 0 {
			return nil, fmt.Errorf(`catalog: view %q includes nothing (use "*" or name members)`, spec.Name)
		}
		for _, m := range spec.Includes.Members {
			if !dims[m.Name] {
				return nil, fmt.Errorf("catalog: view %q includes unknown dimension %q (cube %q has %v)",
					spec.Name, m.Name, spec.Cube, info.Dimensions)
			}
			if excluded[m.Name] {
				continue
			}
			exposed := m.Alias
			if exposed == "" {
				exposed = m.Name
			}
			if err := add(exposed, m.Name); err != nil {
				return nil, err
			}
		}
	}
	if len(v.order) == 0 {
		return nil, fmt.Errorf("catalog: view %q exposes no members after excludes", spec.Name)
	}
	if len(spec.Measures) > 0 {
		v.measures = make(map[string]bool, len(spec.Measures))
		for _, m := range spec.Measures {
			if m != info.Measure || m == "" {
				return nil, fmt.Errorf("catalog: view %q allows unknown measure %q (cube %q measures %q)",
					spec.Name, m, spec.Cube, info.Measure)
			}
			v.measures[m] = true
		}
	}
	return v, nil
}

// Name returns the view name ("" for the nil raw-cube view).
func (v *View) Name() string {
	if v == nil {
		return ""
	}
	return v.name
}

// Spec returns the declarative spec the view was compiled from.
func (v *View) Spec() ViewSpec {
	if v == nil {
		return ViewSpec{Includes: All()}
	}
	return v.spec
}

// Members lists the exposed members in declaration order.
func (v *View) Members() []Member {
	if v == nil {
		return nil
	}
	out := make([]Member, len(v.order))
	for i, name := range v.order {
		out[i] = Member{Name: name, Dimension: v.members[name]}
	}
	return out
}

// Measures lists the allowed measure names, nil when the view allows all.
func (v *View) Measures() []string {
	if v == nil || v.measures == nil {
		return nil
	}
	out := make([]string, 0, len(v.measures))
	for m := range v.measures {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// ResolveMember maps an exposed member name to its underlying dimension.
// Unknown and excluded members fail with a MemberError (HTTP 404 at the
// serving tier): a view rejects members it does not expose before any
// planning happens. Safe on nil (identity).
func (v *View) ResolveMember(name string) (string, error) {
	if v == nil {
		return name, nil
	}
	if dim, ok := v.members[name]; ok {
		return dim, nil
	}
	return "", &MemberError{View: v.name, Member: name}
}

// ResolveKeep resolves a GROUP BY keep-list through the view.
func (v *View) ResolveKeep(keep []string) ([]string, error) {
	if v == nil {
		return keep, nil
	}
	out := make([]string, len(keep))
	for i, k := range keep {
		dim, err := v.ResolveMember(k)
		if err != nil {
			return nil, err
		}
		out[i] = dim
	}
	return out, nil
}

// ResolveRanges resolves the dimension keys of a range query through the
// view.
func (v *View) ResolveRanges(ranges map[string]viewcube.ValueRange) (map[string]viewcube.ValueRange, error) {
	if v == nil {
		return ranges, nil
	}
	out := make(map[string]viewcube.ValueRange, len(ranges))
	for k, r := range ranges {
		dim, err := v.ResolveMember(k)
		if err != nil {
			return nil, err
		}
		out[dim] = r
	}
	return out, nil
}

// ResolveMeasure checks an aggregate's measure argument against the view's
// allowed-measure set. COUNT(*) is always allowed. Safe on nil.
func (v *View) ResolveMeasure(name string) error {
	if v == nil || name == "*" || v.measures == nil {
		return nil
	}
	if !v.measures[name] {
		return &MemberError{View: v.name, Member: name, Measure: true}
	}
	return nil
}

// RewriteSQL parses a SELECT statement, resolves every dimension reference
// (GROUP BY and WHERE) and measure argument through the view, and renders
// the rewritten statement for the engine. Member errors surface before the
// engine ever sees the query.
func (v *View) RewriteSQL(sql string) (string, error) {
	if v == nil {
		return sql, nil
	}
	q, err := query.Parse(sql)
	if err != nil {
		return "", err
	}
	for _, a := range q.Aggregates {
		if err := v.ResolveMeasure(a.Arg); err != nil {
			return "", err
		}
	}
	for i, g := range q.GroupBy {
		dim, err := v.ResolveMember(g)
		if err != nil {
			return "", err
		}
		q.GroupBy[i] = dim
	}
	for i := range q.Where {
		dim, err := v.ResolveMember(q.Where[i].Dim)
		if err != nil {
			return "", err
		}
		q.Where[i].Dim = dim
	}
	return q.String(), nil
}

// RewriteColumns maps result column names (underlying dimensions plus
// aggregate labels) back to the view's exposed member names. Columns that
// are not dimensions (aggregate labels such as "SUM(sales)") pass through.
// Safe on nil (identity).
func (v *View) RewriteColumns(cols []string) []string {
	if v == nil {
		return cols
	}
	out := make([]string, len(cols))
	for i, c := range cols {
		if exposed, ok := v.byDim[c]; ok {
			out[i] = exposed
		} else {
			out[i] = c
		}
	}
	return out
}
