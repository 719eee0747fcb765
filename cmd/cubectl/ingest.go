package main

// The ingest subcommand's rows come as arguments in the compact form
// dim=val,dim2=val2:delta, as in
//
//	cubectl ingest 'product=ale,region=east:5' 'product=ipa,region=west:2'
//
// or, with "-" or no argument, as JSON objects {"delta": ..., "values":
// {...}} on stdin. The request asks the server to flush, so a zero exit
// means every row is queryable; with -noflush rows are only acknowledged
// and become visible at the server's next background merge.

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

type ingestRow struct {
	Delta  float64           `json:"delta"`
	Values map[string]string `json:"values"`
}

// parseIngestRow parses the compact argument form "dim=val,dim2=val2:delta".
// The delta separator is the LAST colon, so member values containing colons
// survive.
func parseIngestRow(arg string) (ingestRow, error) {
	cut := strings.LastIndexByte(arg, ':')
	if cut < 0 {
		return ingestRow{}, fmt.Errorf("row %q: want dim=val,...:delta", arg)
	}
	delta, err := strconv.ParseFloat(arg[cut+1:], 64)
	if err != nil {
		return ingestRow{}, fmt.Errorf("row %q: bad delta %q: %w", arg, arg[cut+1:], err)
	}
	row := ingestRow{Delta: delta, Values: make(map[string]string)}
	for _, pair := range strings.Split(arg[:cut], ",") {
		dim, val, ok := strings.Cut(pair, "=")
		if !ok || dim == "" {
			return ingestRow{}, fmt.Errorf("row %q: bad pair %q: want dim=value", arg, pair)
		}
		row.Values[dim] = val
	}
	return row, nil
}

// readIngestRows collects the batch: compact-form arguments, or JSON
// objects from r when the sole argument is "-" (or none are given).
func readIngestRows(args []string, r io.Reader) ([]ingestRow, error) {
	var rows []ingestRow
	if len(args) == 0 || len(args) == 1 && args[0] == "-" {
		for dec := json.NewDecoder(r); ; {
			var row ingestRow
			if err := dec.Decode(&row); err == io.EOF {
				return rows, nil
			} else if err != nil {
				return nil, fmt.Errorf("stdin row %d: %w", len(rows)+1, err)
			}
			rows = append(rows, row)
		}
	}
	for _, arg := range args {
		row, err := parseIngestRow(arg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}
