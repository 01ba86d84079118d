package exec

// The DPHJ tests (dphj_test.go) drive the join network through core's
// engine, which imports this package, so they live in the external test
// package exec_test and reach these fixtures through here.
var (
	SmallFig5     = smallFig5
	Uniform       = uniform
	TestingConfig = testConfig
	PredWorkload  = predWorkload
	BuildPredPlan = buildPredPlan
)
