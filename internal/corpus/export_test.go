package corpus

// Test helpers shared with the external corpus_test package.
var (
	FlatRepo = flatRepo
	Day      = day
)
