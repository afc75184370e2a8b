package xtest

// Double exports an unexported function to the external test package
// only.
var Double = double
