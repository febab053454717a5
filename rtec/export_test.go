package rtec

// NewReferenceEngine builds an engine whose working memory is the naive
// reference store (refstore_test.go) instead of the column store, for
// the store-equivalence gates of the external test package.
func NewReferenceEngine(defs *Definitions, opts Options) (*Engine, error) {
	e, err := NewEngine(defs, opts)
	if err != nil {
		return nil, err
	}
	e.newStore = newRefStore
	e.store = e.newStore()
	return e, nil
}
