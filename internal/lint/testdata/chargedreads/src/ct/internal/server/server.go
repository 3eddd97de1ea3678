package server

import "ct/internal/eval"

func Handle() {
	_ = eval.Answers(eval.NewStoreSource()) // want "unbounded evaluation"
}
