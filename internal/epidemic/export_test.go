package epidemic

// TupleChecksum hands the deep content checksum to the tests in package
// epidemic_test, which can import internal/core where these cannot.
var TupleChecksum = tupleChecksum
