package datagen

import "math/rand"

// DiseaseSeed is the default generation seed for the Disease A-Z dataset.
const DiseaseSeed = 20240115

// Disease generates the Disease A-Z dataset at the paper's scale (Tables II
// and III): 11 concepts, a 284-row structured table, and 314 diseases split
// 240/61/13 across train/validation/test.
func Disease(seed int64) *Dataset {
	vr := rand.New(rand.NewSource(seed ^ 0x5eed))

	anatomyKnown, anatomyNovel := combinePools(vr, anatomyHeads, anatomyModifiers, 0.35, 6)
	causeKnown, causeNovel := combinePools(vr, causeHeads, causeModifiers, 0.35, 4)
	complKnown, complNovel := combinePools(vr, complicationHeads, complicationModifiers, 0.35, 4)
	compoKnown, compoNovel := combinePools(vr, compositionHeads, compositionModifiers, 0.35, 2)
	diagKnown, diagNovel := combinePools(vr, diagnosisHeads, diagnosisModifiers, 0.35, 2)
	medKnown, medNovel := combinePools(vr, medicineNames(), nil, 0.35, 0)
	precKnown, precNovel := combinePools(vr, precautionHeads, nil, 0.35, 0)
	riskKnown, riskNovel := combinePools(vr, riskfactorHeads, nil, 0.35, 0)
	surgKnown, surgNovel := combinePools(vr, surgeryHeads, nil, 0.35, 0)
	sympKnown, sympNovel := combinePools(vr, symptomHeads, symptomModifiers, 0.35, 5)

	spec := &domainSpec{
		name:           "disease-az",
		subjectConcept: "Disease",
		subjectPool:    diseaseNames(vr, 620),
		concepts: []*conceptSpec{
			{
				concept: "Anatomy", known: anatomyKnown, novel: anatomyNovel,
				templates: []string{
					"It mainly affects the %s.",
					"The condition develops in the %s.",
					"Damage to the %s is typical.",
					"Swelling around the %s may appear.",
				},
				listTemplates: []string{"The disease can involve the %s."},
				coverage:      0.45, tableP: 0.70, tableMaxVals: 5,
				modifierWords: modifierSet(anatomyModifiers),
			},
			{
				concept: "Cause", known: causeKnown, novel: causeNovel,
				templates: []string{
					"It is usually caused by %s.",
					"%s can trigger the condition.",
					"The most common cause is %s.",
				},
				coverage: 0.35, tableP: 0.60, tableMaxVals: 3,
				modifierWords: modifierSet(causeModifiers),
			},
			{
				concept: "Complication", known: complKnown, novel: complNovel,
				templates: []string{
					"Without treatment it can lead to %s.",
					"Some patients develop %s.",
					"A serious complication is %s.",
				},
				listTemplates: []string{"Complications may include %s."},
				coverage:      0.40, tableP: 0.70, tableMaxVals: 4,
				modifierWords: modifierSet(complicationModifiers),
			},
			{
				// Composition is the under-represented class: small
				// vocabulary, zero UniNER pre-training coverage.
				concept: "Composition", known: compoKnown, novel: compoNovel,
				templates: []string{
					"The lesions consist of %s.",
					"Layers of %s build up over time.",
				},
				coverage: 0, tableP: 0.40, tableMaxVals: 2,
				modifierWords: modifierSet(compositionModifiers),
			},
			{
				concept: "Diagnosis", known: diagKnown, novel: diagNovel,
				templates: []string{
					"Doctors confirm it with a %s.",
					"A %s is used to diagnose the condition.",
					"Diagnosis usually requires a %s.",
				},
				coverage: 0.08, tableP: 0.65, tableMaxVals: 3,
				modifierWords: modifierSet(diagnosisModifiers),
			},
			{
				concept: "Medicine", known: medKnown, novel: medNovel,
				templates: []string{
					"Doctors often prescribe %s.",
					"Treatment usually involves %s.",
					"%s can relieve the condition.",
				},
				listTemplates: []string{"Common treatments include %s."},
				coverage:      0.12, tableP: 0.70, tableMaxVals: 5,
			},
			{
				concept: "Precaution", known: precKnown, novel: precNovel,
				templates: []string{
					"%s reduces the risk.",
					"Patients are advised to maintain %s.",
					"Doctors recommend %s as a precaution.",
				},
				coverage: 0.25, tableP: 0.55, tableMaxVals: 2,
			},
			{
				concept: "Riskfactor", known: riskKnown, novel: riskNovel,
				templates: []string{
					"%s increases the risk of the disease.",
					"People with %s are more likely to develop it.",
					"A major risk factor is %s.",
				},
				coverage: 0.40, tableP: 0.60, tableMaxVals: 3,
			},
			{
				concept: "Surgery", known: surgKnown, novel: surgNovel,
				templates: []string{
					"Severe cases may require %s.",
					"Surgeons sometimes perform %s.",
					"A %s can remove the damaged area.",
				},
				coverage: 0.25, tableP: 0.50, tableMaxVals: 2,
			},
			{
				concept: "Symptom", known: sympKnown, novel: sympNovel,
				templates: []string{
					"Patients often report %s.",
					"An early sign is %s.",
					"Many people experience %s.",
				},
				listTemplates: []string{"Common symptoms include %s."},
				coverage:      0.65, tableP: 0.75, tableMaxVals: 6,
				modifierWords: modifierSet(symptomModifiers),
			},
		},
		openingTemplates: []string{
			"%s is a condition that affects many people.",
			"%s is a disorder seen in clinics worldwide.",
			"%s develops gradually in most patients.",
		},
		relatedTemplates: []string{
			"It is sometimes confused with %s.",
			"Unlike %s, it progresses slowly.",
			"Patients with %s show similar signs.",
		},
		trapTemplates: []string{
			"The leaflet also mentions %s in passing.",
			"One review article discussed %s in a different context.",
			"A separate study once examined %s unrelated to this condition.",
			"The glossary at the clinic lists %s among other terms.",
		},
		filler: diseaseFiller,
		// Table III densities: train 240 subjects × 6 docs (~77 facts),
		// valid 61 × 5, test 13 × 7 (~170 facts incl. ~30 disease
		// mentions).
		train:       splitSpec{subjects: 240, docsPerSubject: 6, factsPerConcept: 6.3, relatedPerSubject: 14, fillerPerDoc: 4, trapsPerDoc: 4, knownTrapP: 0.15},
		valid:       splitSpec{subjects: 61, docsPerSubject: 5, factsPerConcept: 6.0, relatedPerSubject: 10, fillerPerDoc: 2, trapsPerDoc: 4, knownTrapP: 0.15},
		test:        splitSpec{subjects: 13, docsPerSubject: 7, factsPerConcept: 14.0, relatedPerSubject: 30, fillerPerDoc: 2, trapsPerDoc: 14, knownTrapP: 0.12},
		tableRows:   284,
		knownFactP:  0.15,
		groupPerDoc: 1,
	}
	return generate(spec, seed)
}

// medicineNames synthesizes the drug-name vocabulary.
func medicineNames() []string {
	var out []string
	for _, p := range medicinePrefixes {
		for _, s := range medicineSuffixes {
			out = append(out, p+s)
		}
	}
	return append(out, medicinePhrases...)
}

// diseaseNames builds the subject-name pool: real names first, then
// synthesized modifier+anatomy+pathology names.
func diseaseNames(rng *rand.Rand, n int) []string {
	names := append([]string(nil), realDiseases...)
	seen := make(map[string]bool, n)
	for _, d := range names {
		seen[d] = true
	}
	for len(names) < n {
		name := pick(rng, diseaseNameModifiers) + " " +
			pick(rng, diseaseNameAnatomies) + " " +
			pick(rng, diseaseNamePathologies)
		if seen[name] {
			continue
		}
		seen[name] = true
		names = append(names, name)
	}
	return names
}
