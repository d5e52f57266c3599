package cluster

// OracleDBSCAN exposes the breadth-first oracle to the external test
// package, whose traces come from packages that import this one.
var OracleDBSCAN = oracleDBSCAN
