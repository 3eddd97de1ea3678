package core

import (
	"ct/internal/eval"
	"ct/internal/store"
)

func Snapshot(b store.Backend) {
	_ = b.CloneData() // want "uncharged read"
}

// ScanAnswer answers by counted full scans: charged, but unbounded.
func ScanAnswer() {
	src := eval.NewStoreSource() // want `unbounded evaluation: eval\.NewStoreSource`
	_ = eval.Stream(src)         // want `unbounded evaluation: eval\.Stream`
	_ = src.Stream()             // a method of the same name is not the entry point
}
