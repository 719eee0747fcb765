package viewcube

// DropRangeState empties what a range read may reuse from the reads before
// it, as an ingest publish does. Range reads contract the stored elements
// afresh and keep nothing between reads but plans, which a publish keeps,
// so there is nothing to drop: a cold range is a warm one.
// BenchmarkRangeContraction's cold arms call it before each read.
func DropRangeState(*Engine) {}
