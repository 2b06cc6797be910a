package experiments

import (
	"sync"

	"thor/internal/datagen"
	"thor/internal/matcher"
	"thor/internal/models"
	"thor/internal/thor"
)

// The datasets and full comparisons are deterministic and somewhat costly to
// build, so benchmarks and the CLI share memoized instances.
var (
	diseaseOnce sync.Once
	diseaseDS   *datagen.Dataset

	resumeOnce sync.Once
	resumeDS   *datagen.Dataset

	diseaseCmpOnce sync.Once
	diseaseCmp     *Comparison

	resumeCmpOnce sync.Once
	resumeCmp     *Comparison

	annotationOnce  sync.Once
	annotationStudy *AnnotationStudy

	// tuneCache shares fine-tuned matchers across every experiment run,
	// keyed by (space, table fingerprint, matcher config): the comparison
	// sweep, τ tuning and the annotation study all fine-tune on the same
	// knowledge tables, so only the first run per (dataset, τ) pays for
	// cluster expansion. Results are identical with or without the cache
	// (covered by the thor package's cached-fine-tune determinism test).
	tuneCache = matcher.NewCache()

	// parseCache shares sentence analyses (POS tags, dependency parses,
	// noun phrases) across every THOR run: the τ sweep, tuning and the
	// annotation study all read the same documents, and parses are
	// τ-independent. The lexicon is part of the cache key, so both
	// datasets safely share one cache. Results are identical with or
	// without it.
	parseCache = thor.NewParseCache()

	// lmMu guards lmPool, which shares LM-Human models across experiments:
	// Experiment 1's comparator (the full training split) and Experiment 2's
	// largest annotation point fine-tune on identical data, and a model is
	// deterministic and safe for concurrent Extract after construction, so
	// one instance (with its warmed decision memo) serves both.
	lmMu   sync.Mutex
	lmPool = map[lmKey]*models.LMHuman{}
)

// lmKey identifies an LM-Human fine-tune: the dataset instance and the
// annotated-subject count (the Table X sweep axis).
type lmKey struct {
	ds *datagen.Dataset
	n  int
}

// lmHumanFor returns the memoized LM-Human model fine-tuned on the first n
// training subjects of ds (n capped at the full split).
func lmHumanFor(ds *datagen.Dataset, n int) *models.LMHuman {
	if n > len(ds.Train.Subjects) {
		n = len(ds.Train.Subjects)
	}
	key := lmKey{ds: ds, n: n}
	lmMu.Lock()
	defer lmMu.Unlock()
	if m, ok := lmPool[key]; ok {
		return m
	}
	subset := trainSubset(ds, n)
	m := models.NewLMHuman(subset.Gold, subset.Docs, ds.Space, ds.TestTable().Subjects(), ds.Lexicon)
	lmPool[key] = m
	return m
}

// DiseaseDataset returns the shared Disease A-Z dataset.
func DiseaseDataset() *datagen.Dataset {
	diseaseOnce.Do(func() { diseaseDS = datagen.Disease(datagen.DiseaseSeed) })
	return diseaseDS
}

// ResumeDataset returns the shared Résumé dataset.
func ResumeDataset() *datagen.Dataset {
	resumeOnce.Do(func() { resumeDS = datagen.Resume(datagen.ResumeSeed) })
	return resumeDS
}

// DiseaseComparison returns the shared Experiment 1 results.
func DiseaseComparison() *Comparison {
	diseaseCmpOnce.Do(func() { diseaseCmp = Compare(DiseaseDataset()) })
	return diseaseCmp
}

// ResumeComparison returns the shared Experiment 3 results.
func ResumeComparison() *Comparison {
	resumeCmpOnce.Do(func() { resumeCmp = Compare(ResumeDataset()) })
	return resumeCmp
}

// Annotation returns the shared Experiment 2 results.
func Annotation() *AnnotationStudy {
	annotationOnce.Do(func() { annotationStudy = StudyAnnotation(DiseaseDataset()) })
	return annotationStudy
}
