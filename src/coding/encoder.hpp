// coding::FileEncoder: the dense RLNC encoder, which is chunked::Encoder
// built without a class schedule (one class of width k).
#pragma once

#include "coding/chunked.hpp"
