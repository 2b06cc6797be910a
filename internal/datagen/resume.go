package datagen

import (
	"math/rand"
	"strconv"
)

// ResumeSeed is the default generation seed for the Résumé dataset.
const ResumeSeed = 20240220

// Resume generates the Résumé dataset (Tables II and III): 12 concepts, a
// 201-row structured table, 270 job seekers split 100/70/100, and documents
// bundling 5 CVs each — long enough that the UniNER simulator's 2,048-token
// context window truncates them, as reported in the paper.
func Resume(seed int64) *Dataset {
	vr := rand.New(rand.NewSource(seed ^ 0xcafe))

	awardKnown, awardNovel := combinePools(vr, awardHeads, nil, 0.35, 0)
	certKnown, certNovel := combinePools(vr, certNames(), nil, 0.35, 0)
	degreeKnown, degreeNovel := combinePools(vr, degreeNames(), nil, 0.35, 0)
	uniKnown, uniNovel := combinePools(vr, universityNames(), nil, 0.35, 0)
	collegeKnown, collegeNovel := combinePools(vr, collegeNames(), nil, 0.35, 0)
	langKnown, langNovel := combinePools(vr, languages, nil, 0.35, 0)
	locKnown, locNovel := combinePools(vr, cities, nil, 0.35, 0)
	roleKnown, roleNovel := combinePools(vr, roleHeads, roleSeniorities, 0.35, 4)
	skillKnown, skillNovel := combinePools(vr, skillHeads, nil, 0.35, 0)
	compKnown, compNovel := combinePools(vr, companyNames(), nil, 0.35, 0)
	yoeKnown, yoeNovel := combinePools(vr, yoePhrases(), nil, 0.35, 0)

	spec := &domainSpec{
		name:           "resume",
		subjectConcept: "Name",
		subjectPool:    personNames(vr, 420),
		concepts: []*conceptSpec{
			{
				concept: "Awards", known: awardKnown, novel: awardNovel,
				templates: []string{
					"Won the %s.",
					"The candidate received the %s.",
				},
				altTemplates: []string{
					"Recognized with the %s at a company ceremony.",
					"Achievements feature the %s.",
				},
				coverage: 0.03, tableP: 0.5, tableMaxVals: 3,
			},
			{
				concept: "Certification", known: certKnown, novel: certNovel,
				templates: []string{
					"Holds a %s.",
					"Earned the %s last year.",
				},
				altTemplates: []string{
					"Credentials cover the %s.",
					"Obtained a %s recently.",
				},
				coverage: 0.03, tableP: 0.55, tableMaxVals: 3,
			},
			{
				concept: "Degree", known: degreeKnown, novel: degreeNovel,
				templates: []string{
					"Completed a %s.",
					"Graduated with a %s.",
				},
				altTemplates: []string{
					"Academic background features a %s.",
					"Education culminated in a %s.",
				},
				coverage: 0.08, generic: true, tableP: 0.7, tableMaxVals: 3,
			},
			{
				concept: "University", known: uniKnown, novel: uniNovel,
				templates: []string{
					"Studied at %s.",
					"The degree was awarded by %s.",
				},
				altTemplates: []string{
					"Enrolled at %s for the main degree.",
					"Alma mater is %s.",
				},
				coverage: 0.12, generic: true, tableP: 0.65, tableMaxVals: 2,
			},
			{
				concept: "College Name", known: collegeKnown, novel: collegeNovel,
				templates: []string{
					"Attended %s earlier.",
					"Secondary studies were at %s.",
				},
				altTemplates: []string{
					"Early schooling happened at %s.",
					"Foundation courses were taken at %s.",
				},
				coverage: 0.03, tableP: 0.45, tableMaxVals: 2,
			},
			{
				concept: "Language", known: langKnown, novel: langNovel,
				templates: []string{
					"Fluent in %s.",
					"Speaks %s at a professional level.",
				},
				altTemplates: []string{
					"Comfortable conversing in %s.",
					"Communicates daily in %s.",
				},
				listTemplates: []string{"Languages include %s."},
				coverage:      0.12, generic: true, tableP: 0.65, tableMaxVals: 4,
			},
			{
				concept: "Location", known: locKnown, novel: locNovel,
				templates: []string{
					"Based in %s.",
					"Currently living in %s.",
				},
				altTemplates: []string{
					"Home base is %s nowadays.",
					"Resides near %s.",
				},
				coverage: 0.12, generic: true, tableP: 0.7, tableMaxVals: 2,
			},
			{
				concept: "Worked As", known: roleKnown, novel: roleNovel,
				templates: []string{
					"Worked as a %s.",
					"The most recent role was %s.",
					"Previously employed as a %s.",
				},
				altTemplates: []string{
					"Functioned as a %s for several quarters.",
					"Serving currently as %s.",
				},
				coverage: 0.03, tableP: 0.75, tableMaxVals: 4,
				modifierWords: modifierSet(roleSeniorities),
			},
			{
				concept: "Skills", known: skillKnown, novel: skillNovel,
				templates: []string{
					"Highly proficient in %s.",
					"Core expertise covers %s.",
				},
				altTemplates: []string{
					"The toolbox contains %s.",
					"Hands-on mastery of %s.",
				},
				listTemplates: []string{"Skills include %s."},
				coverage:      0.08, tableP: 0.8, tableMaxVals: 6,
			},
			{
				concept: "Companies Worked At", known: compKnown, novel: compNovel,
				templates: []string{
					"Spent several years at %s.",
					"Joined %s after graduation.",
				},
				altTemplates: []string{
					"Career stops include %s.",
					"Employment history covers %s.",
				},
				coverage: 0.08, generic: true, tableP: 0.7, tableMaxVals: 4,
			},
			{
				concept: "Years Of Experience", known: yoeKnown, novel: yoeNovel,
				templates: []string{
					"Brings %s to the team.",
					"Has accumulated %s.",
				},
				altTemplates: []string{
					"Counts %s under the belt.",
					"The career spans %s.",
				},
				coverage: 0.01, tableP: 0.6, tableMaxVals: 1,
			},
		},
		openingTemplates: []string{
			"%s is an experienced professional.",
			"%s is seeking a new opportunity.",
			"%s has a strong track record.",
		},
		relatedTemplates: []string{
			"%s provided a reference.",
			"Collaborated closely with %s.",
		},
		trapTemplates: []string{
			"A former colleague mentioned %s during a casual chat.",
			"The cover letter briefly refers to %s without detail.",
			"An old newsletter once featured %s in another context.",
		},
		filler: resumeFiller,
		// Table III: 100/70/100 subjects, 20/14/20 documents (5 CVs each),
		// ~17–21 entities per CV.
		train:       splitSpec{subjects: 100, docsPerSubject: 1, factsPerConcept: 1.5, relatedPerSubject: 1, fillerPerDoc: 24, trapsPerDoc: 6, knownTrapP: 0.15},
		valid:       splitSpec{subjects: 70, docsPerSubject: 1, factsPerConcept: 1.8, relatedPerSubject: 1, fillerPerDoc: 24, trapsPerDoc: 6, knownTrapP: 0.15, altTemplateP: 0.5},
		test:        splitSpec{subjects: 100, docsPerSubject: 1, factsPerConcept: 1.8, relatedPerSubject: 1, fillerPerDoc: 24, trapsPerDoc: 12, knownTrapP: 0.50, altTemplateP: 0.8},
		tableRows:   201,
		knownFactP:  0.06,
		groupPerDoc: 5,
	}
	return generate(spec, seed)
}

func personNames(rng *rand.Rand, n int) []string {
	seen := make(map[string]bool, n)
	var out []string
	for len(out) < n {
		name := pick(rng, firstNames) + " " + pick(rng, lastNames)
		if seen[name] {
			continue
		}
		seen[name] = true
		out = append(out, name)
	}
	return out
}

func certNames() []string {
	var out []string
	for _, v := range certVendors {
		for _, t := range certTypes {
			out = append(out, v+" "+t)
		}
	}
	return out
}

func degreeNames() []string {
	var out []string
	for _, d := range degreeTypes {
		for _, f := range degreeFields {
			out = append(out, d+" in "+f)
		}
	}
	return out
}

func universityNames() []string {
	var out []string
	for _, s := range universityStems {
		out = append(out, s+" University", "University of "+s)
	}
	return out
}

func collegeNames() []string {
	var out []string
	for _, s := range collegeStems {
		out = append(out, s+" College", s+" Institute")
	}
	return out
}

func companyNames() []string {
	var out []string
	for _, s := range companyStems {
		for _, suf := range companySuffixes {
			out = append(out, s+" "+suf)
		}
	}
	return out
}

func yoePhrases() []string {
	var out []string
	for y := 1; y <= 30; y++ {
		out = append(out, strconv.Itoa(y)+" years of experience")
	}
	return out
}
