module flowzip/bench

go 1.23

require flowzip v0.0.0

replace flowzip => ../
