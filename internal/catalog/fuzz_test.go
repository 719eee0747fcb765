package catalog

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"unicode/utf8"
)

// FuzzParseCatalog: Parse never panics on arbitrary bytes, and a document it
// accepts marshals back into one it accepts again, unchanged.
func FuzzParseCatalog(f *testing.F) {
	if seed, err := os.ReadFile("../../examples/multicube/catalog.json"); err == nil {
		f.Add(seed)
	}
	for _, seed := range []string{
		`{"cubes":[{"name":"a","gen":10,"seed":3,"budget":1.5,"reselect":4}]}`,
		`{"cubes":[{"name":"a","csv":"a.csv"}],"views":[{"name":"v","cube":"a"}]}`,
		`{"cubes":[{"name":"a","csv":"a.csv"}],"views":[{"name":"v","cube":"a","includes":null}]}`,
		`{"cubes":[{"name":"a","csv":"a.csv"}],"views":[{"name":"v","cube":"a","includes":["x",{"name":"y","alias":"z"}],"measures":["m"]}]}`,
		`{"cubes":[{"name":"a","csv":"a.csv","default":true},{"name":"b","gen":1,"default":true}]}`,
		`{"cubes":[]}`,
		`{"cubes":[{"name":"a","csv":"a.csv"}],"views":[{"name":"v","cube":"a","includes":"all"}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := Parse(data)
		if err != nil || !utf8.Valid(data) {
			return // invalid UTF-8 re-marshals as U+FFFD, a different name
		}
		first, err := json.Marshal(file)
		if err != nil {
			t.Fatalf("marshalling an accepted catalog: %v", err)
		}
		again, err := Parse(first)
		if err != nil {
			t.Fatalf("the re-marshalled catalog %s is rejected: %v", first, err)
		}
		second, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("re-parsing changed the catalog:\n%s\n%s", first, second)
		}
	})
}
